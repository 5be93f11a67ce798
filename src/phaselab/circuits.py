"""Boolean circuits over {-1,+1}: the candidate one-way maps f.

Encoding convention used everywhere in the package: the bit -1 is boolean True
and +1 is boolean False. Circuits are gate lists (AND/OR/NOT, bounded fan-in)
in topological order; references name either a primary input or an earlier
gate. A circuit is the map f itself: calling it evaluates f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

KINDS = ("AND", "OR", "NOT")
MAX_ENUM_D = 12  # the largest n_inputs whose 2^n seeds are enumerated


@dataclass(frozen=True)
class Gate:
    kind: str  # AND | OR | NOT
    inputs: tuple[int, ...]  # references: 0..n-1 inputs, n+k = output of gate k

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "NOT" and len(self.inputs) != 1:
            raise ValueError("NOT takes exactly one input")
        if len(self.inputs) < 1:
            raise ValueError("gate fan-in must be >= 1")


@dataclass(frozen=True)
class BooleanCircuit:
    """Acyclic gate list over n primary inputs: the map f: {-1,+1}^n_inputs -> {-1,+1}^n_outputs."""

    n_inputs: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]  # references into inputs/gates
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n_inputs < 0:
            raise ValueError(f"n_inputs must be >= 0, got {self.n_inputs}")
        for k, g in enumerate(self.gates):
            for ref in g.inputs:
                if not (0 <= ref < self.n_inputs + k):
                    raise ValueError(f"gate {k} references {ref}, not yet defined")
        for ref in self.outputs:
            if not (0 <= ref < self.n_inputs + len(self.gates)):
                raise ValueError(f"output reference {ref} out of range")

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return eval_circuit(self, s)

    @cached_property
    def seed_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, f(S)) over all 2^n_inputs seeds (n_inputs <= MAX_ENUM_D), read-only, built once."""
        if self.n_inputs > MAX_ENUM_D:
            n = self.n_inputs
            raise ValueError(f"seed enumeration is limited to d <= {MAX_ENUM_D}, got d = {n}")
        S = all_inputs(self.n_inputs)
        F = self(S)
        S.flags.writeable = F.flags.writeable = False
        return S, F

    @cached_property
    def float_seed_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, Fp, [Fp, 1-Fp].T) of seed_table as read-only floats, Fp = (f(S) == +1), built
        once per circuit: the exact score's three GEMM operands. seed_posterior_log_weights
        reads the third, the tail GEMM's right-hand side."""
        S, Fp = self.seed_table[0].astype(float), (self.seed_table[1] == 1).astype(float)
        both = np.concatenate((Fp, 1.0 - Fp), axis=1)
        S.flags.writeable = Fp.flags.writeable = both.flags.writeable = False
        return S, Fp, both.T


def eval_circuit(c: BooleanCircuit, x: np.ndarray) -> np.ndarray:
    """Evaluate on a batch of +-1 inputs, shape (..., n_inputs) -> (..., n_outputs)."""
    x = np.asarray(x)
    if x.shape[-1] != c.n_inputs:
        raise ValueError("input length mismatch")
    true = x == -1  # True encoded as -1
    vals = [true[..., i] for i in range(c.n_inputs)]
    for g in c.gates:
        v = vals[g.inputs[0]]
        if g.kind == "NOT":
            v = ~v
        else:  # a fan-in-1 gate is its input's own view; nothing here writes in place
            op = np.logical_and if g.kind == "AND" else np.logical_or
            for r in g.inputs[1:]:
                v = op(v, vals[r])
        vals.append(v)
    out = np.empty(x.shape[:-1] + (c.n_outputs,), dtype=bool)
    for k, r in enumerate(c.outputs):
        out[..., k] = vals[r]
    return np.where(out, -1, 1)  # int64


def sign_identity(d: int) -> BooleanCircuit:
    """f(s) = s, as a circuit (NOT(NOT(x_i)) so every output is a gate)."""
    gates = []
    outs = []
    for i in range(d):
        gates.append(Gate("NOT", (i,)))
        gates.append(Gate("NOT", (d + len(gates) - 1,)))
        outs.append(d + len(gates) - 1)
    return BooleanCircuit(d, tuple(gates), tuple(outs), "sign-identity")


def no_output_candidate(d: int) -> BooleanCircuit:
    """The empty map f: {-1,+1}^d -> {-1,+1}^0 (for measurement-free instances)."""
    return BooleanCircuit(d, (), (), "no-output")


# --- text serialization: one declaration per line, refs are x<i> / g<k> ---


def _ref_name(ref: int, n: int) -> str:
    return f"x{ref}" if ref < n else f"g{ref - n}"


def _parse_ref(tok: str, n: int) -> int:
    if tok.startswith("x"):
        return int(tok[1:])
    if tok.startswith("g"):
        return n + int(tok[1:])
    raise ValueError(f"bad reference {tok!r}")


def candidate_to_text(c: BooleanCircuit) -> str:
    lines = [f"inputs {c.n_inputs}"]
    for k, g in enumerate(c.gates):
        refs = " ".join(_ref_name(r, c.n_inputs) for r in g.inputs)
        lines.append(f"g{k} {g.kind} {refs}")
    lines.append("outputs " + " ".join(_ref_name(r, c.n_inputs) for r in c.outputs))
    return "\n".join(lines) + "\n"


def candidate_from_text(text: str) -> BooleanCircuit:
    n = None
    gates: list[Gate] = []
    outputs: tuple[int, ...] | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) < 2 and toks[0] != "outputs":
            raise ValueError(f"line {line!r} is too short")
        if toks[0] == "inputs":
            n = int(toks[1])
        elif toks[0] == "outputs":
            if n is None:
                raise ValueError("outputs before inputs declaration")
            outputs = tuple(_parse_ref(t, n) for t in toks[1:])
        else:
            if n is None:
                raise ValueError("gate before inputs declaration")
            if not toks[0].startswith("g") or int(toks[0][1:]) != len(gates):
                raise ValueError(f"gates must be declared in order, got {toks[0]!r}")
            gates.append(Gate(toks[1], tuple(_parse_ref(t, n) for t in toks[2:])))
    if n is None or outputs is None:
        raise ValueError("missing inputs/outputs declaration")
    return BooleanCircuit(n, tuple(gates), outputs)


def all_inputs(n: int) -> np.ndarray:
    """All 2^n sign vectors, shape (2^n, n); row index in binary, 0 bit -> +1."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.where(bits == 1, -1, 1).astype(np.int64)
