"""Boolean circuits over {-1,+1} and one-way-function candidates.

Encoding convention used everywhere in the package: the bit -1 is boolean True
and +1 is boolean False. Circuits are gate lists (AND/OR/NOT, bounded fan-in)
in topological order; references name either a primary input or an earlier
gate. Candidates wrap a circuit with declared input/output lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

KINDS = ("AND", "OR", "NOT")


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
    """Acyclic gate list over n primary inputs."""

    n_inputs: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]  # references into inputs/gates

    def __post_init__(self):
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


def eval_circuit(c: BooleanCircuit, x: np.ndarray) -> np.ndarray:
    """Evaluate on a batch of +-1 inputs, shape (..., n_inputs) -> (..., n_outputs)."""
    x = np.asarray(x)
    if x.shape[-1] != c.n_inputs:
        raise ValueError("input length mismatch")
    vals = [x[..., i] == -1 for i in range(c.n_inputs)]  # True encoded as -1
    for g in c.gates:
        ins = [vals[r] for r in g.inputs]
        if g.kind == "AND":
            v = np.logical_and.reduce(ins)
        elif g.kind == "OR":
            v = np.logical_or.reduce(ins)
        else:
            v = ~ins[0]
        vals.append(v)
    if not c.outputs:
        return np.zeros(x.shape[:-1] + (0,), dtype=np.int64)
    out = np.stack([vals[r] for r in c.outputs], axis=-1)
    return np.where(out, -1, 1).astype(np.int64)


@dataclass(frozen=True)
class OneWayCandidate:
    """A candidate hard-to-invert map f: {-1,+1}^inputLen -> {-1,+1}^outputLen."""

    input_len: int
    output_len: int
    circuit: BooleanCircuit
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.circuit.n_inputs != self.input_len:
            raise ValueError("circuit input arity mismatch")
        if self.circuit.n_outputs != self.output_len:
            raise ValueError("circuit output arity mismatch")

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return eval_circuit(self.circuit, s)

    @cached_property
    def seed_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, f(S)) over all 2^input_len seeds as read-only arrays, built on first use."""
        S = all_inputs(self.input_len)
        F = self(S)
        S.flags.writeable = False
        F.flags.writeable = False
        return S, F


def sign_identity(d: int) -> OneWayCandidate:
    """f(s) = s, as a circuit (NOT(NOT(x_i)) so every output is a gate)."""
    gates = []
    outs = []
    for i in range(d):
        gates.append(Gate("NOT", (i,)))
        gates.append(Gate("NOT", (d + len(gates) - 1,)))
        outs.append(d + len(gates) - 1)
    return OneWayCandidate(d, d, BooleanCircuit(d, tuple(gates), tuple(outs)), "sign-identity")


def no_output_candidate(d: int) -> OneWayCandidate:
    """The empty map f: {-1,+1}^d -> {-1,+1}^0 (for measurement-free instances)."""
    return OneWayCandidate(d, 0, BooleanCircuit(d, (), ()), "no-output")


def constant_candidate(d: int, bits: np.ndarray) -> OneWayCandidate:
    """f(s) = bits for every s. +1 = AND(x0, NOT x0), -1 = OR(x0, NOT x0)."""
    bits = np.asarray(bits)
    gates = [Gate("NOT", (0,))]
    not0 = d  # reference of NOT(x0)
    outs = []
    for b in bits:
        kind = "OR" if b == -1 else "AND"
        gates.append(Gate(kind, (0, not0)))
        outs.append(d + len(gates) - 1)
    return OneWayCandidate(d, len(outs), BooleanCircuit(d, tuple(gates), tuple(outs)), "constant")


# --- text serialization: one declaration per line, refs are x<i> / g<k> ---


def _ref_name(ref: int, n: int) -> str:
    return f"x{ref}" if ref < n else f"g{ref - n}"


def _parse_ref(tok: str, n: int) -> int:
    if tok.startswith("x"):
        return int(tok[1:])
    if tok.startswith("g"):
        return n + int(tok[1:])
    raise ValueError(f"bad reference {tok!r}")


def candidate_to_text(cand: OneWayCandidate) -> str:
    c = cand.circuit
    lines = [f"inputs {cand.input_len}"]
    for k, g in enumerate(c.gates):
        refs = " ".join(_ref_name(r, c.n_inputs) for r in g.inputs)
        lines.append(f"g{k} {g.kind} {refs}")
    lines.append("outputs " + " ".join(_ref_name(r, c.n_inputs) for r in c.outputs))
    return "\n".join(lines) + "\n"


def candidate_from_text(text: str) -> OneWayCandidate:
    n = None
    gates: list[Gate] = []
    outputs: tuple[int, ...] | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
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
    circuit = BooleanCircuit(n, tuple(gates), outputs)
    return OneWayCandidate(n, circuit.n_outputs, circuit)


def all_inputs(n: int) -> np.ndarray:
    """All 2^n sign vectors, shape (2^n, n); row index in binary, 0 bit -> +1."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.where(bits == 1, -1, 1).astype(np.int64)
