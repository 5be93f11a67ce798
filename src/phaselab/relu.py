"""Explicit feed-forward ReLU networks and compilers onto them.

The IR is a list of structured-sparse affine layers, each with a per-unit
ReLU mask (an all-False mask is a purely affine layer). Structured sparsity
keeps parameter accounting linear under block composition. Compilers:
piecewise-linear -> network (exact), coordinatewise block composition,
hypercube vertex identifier, switch gates, boolean circuit -> network, and
the two assembled score networks for the lattice-mixture family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .circuits import BooleanCircuit
from .instance import InstanceParams, phase_of_bit
from .piecewise import ApproxParams, PiecewiseLinear, build_score_approx
from .scores import DiscreteGaussianSpec, dg_smoothed_score, two_point_score


@dataclass(frozen=True)
class Layer:
    w: sp.csr_matrix  # (out, in)
    b: np.ndarray  # (out,)
    relu: np.ndarray  # bool mask (out,); False entries stay affine

    def __post_init__(self):
        if self.w.shape[0] != self.b.shape[0] or self.b.shape != self.relu.shape:
            raise ValueError("layer shape mismatch")
        if not (np.all(np.isfinite(self.w.data)) and np.all(np.isfinite(self.b))):
            raise ValueError("layer weights must be finite")


@dataclass(frozen=True)
class ReluNetwork:
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.w.shape[1] != a.w.shape[0]:
                raise ValueError("layer dimensions do not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[0]

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class ParamReport:
    param_count: int
    max_abs_weight: float
    depth: int


def _layer(w, b, relu: bool = False) -> Layer:
    w = sp.csr_matrix(w)
    return Layer(w, np.asarray(b, dtype=float), np.full(w.shape[0], relu))


def eval_net(net: ReluNetwork, x) -> np.ndarray:
    """Forward evaluation on (n, inputDim) inputs."""
    z = np.asarray(x, dtype=float)
    if z.ndim != 2 or z.shape[1] != net.input_dim:
        raise ValueError("input dimension mismatch")
    width = max(max(l.w.shape) for l in net.layers)
    chunk = max(1, int(2**22) // width)
    outs = []
    for lo in range(0, z.shape[0], chunk):
        h = z[lo : lo + chunk]
        for l in net.layers:
            h = (l.w @ h.T).T + l.b
            if l.relu.any():
                h[:, l.relu] = np.maximum(h[:, l.relu], 0.0)
        outs.append(h)
    out = np.concatenate(outs, axis=0)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite activation in network evaluation")
    return out


def report(net: ReluNetwork) -> ParamReport:
    count = sum(l.w.nnz + l.b.size for l in net.layers)
    max_abs = max(
        max(np.abs(l.w.data).max() if l.w.nnz else 0.0, np.abs(l.b).max() if l.b.size else 0.0)
        for l in net.layers
    )
    return ParamReport(int(count), float(max_abs), net.depth)


def identity_net(dim: int, depth: int = 1) -> ReluNetwork:
    return ReluNetwork(tuple(_layer(sp.eye(dim), np.zeros(dim)) for _ in range(depth)))


def chain(*nets: ReluNetwork) -> ReluNetwork:
    """Sequential composition (output of each feeds the next)."""
    layers: list[Layer] = []
    for n in nets:
        layers.extend(n.layers)
    return ReluNetwork(tuple(layers))


def compile_piecewise(l: PiecewiseLinear) -> ReluNetwork:
    """Exact one-hidden-layer network computing l.

    g(x) = a1*x + b1 + sum_k c_k*ReLU(x - t_k) with c_k the slope increments
    at the transition points t_k; the linear term rides on ReLU(x) - ReLU(-x).
    """
    bp = l.breakpoints
    slopes = l.slopes()
    a1 = slopes[0]
    c = slopes[1:] - slopes[:-1]  # one increment per breakpoint
    b1 = l.values[0] - a1 * bp[0]

    keep = c != 0.0
    ck, tk = c[keep], bp[keep]
    w1 = np.concatenate(([1.0, -1.0], np.ones(ck.size)))[:, None]
    bias1 = np.concatenate(([0.0, 0.0], -tk))
    w2 = np.concatenate(([a1, -a1], ck))[None, :]
    net = ReluNetwork(
        (
            _layer(w1, bias1, relu=True),
            _layer(w2, np.array([b1])),
        )
    )
    bound = max(
        1.0, abs(a1), abs(b1),
        float(np.abs(ck).max()) if ck.size else 0.0,
        float(np.abs(tk).max()) if tk.size else 0.0,
    )
    assert report(net).max_abs_weight <= bound + 1e-12
    return net


def compose_coordinatewise(nets: list[ReluNetwork]) -> ReluNetwork:
    """Block-diagonal composition: output = (nets[0](x_block0), nets[1](x_block1), ...).

    Nets of unequal depth are padded with identity affine layers at the end.
    """
    if not nets:
        raise ValueError("need at least one network")
    depth = max(n.depth for n in nets)
    padded = [
        n if n.depth == depth else chain(n, identity_net(n.output_dim, depth - n.depth))
        for n in nets
    ]
    layers = []
    for i in range(depth):
        ws = [n.layers[i].w for n in padded]
        bs = np.concatenate([n.layers[i].b for n in padded])
        masks = np.concatenate([n.layers[i].relu for n in padded])
        layers.append(Layer(sp.block_diag(ws, format="csr"), bs, masks))
    return ReluNetwork(tuple(layers))


def vertex_identifier(d: int, alpha: float) -> ReluNetwork:
    """Per-coordinate clamp(x_i/alpha, -1, 1); equals sign(x_i) when |x_i| > alpha."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    # clamp(x/a,-1,1) = (ReLU(x+a) - ReLU(x-a))/a - 1
    w1 = sp.kron(sp.eye(d), [[1.0], [1.0]], format="csr")
    w2 = sp.kron(sp.eye(d), [[1.0 / alpha, -1.0 / alpha]], format="csr")
    net = ReluNetwork((_layer(w1, np.tile([alpha, -alpha], d), relu=True), _layer(w2, -np.ones(d))))
    assert report(net).max_abs_weight <= 2.0 / alpha + 1.0
    return net


def switch_net(dims: int, T: float) -> ReluNetwork:
    """On (x, y) with |x_i| <= T and y in {-1,+1}: outputs x if y=+1 else 0.

    output_i = ReLU(x_i - 2T + 2T*y) - ReLU(-x_i - 2T + 2T*y).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    w1 = sp.hstack(
        [sp.kron(sp.eye(dims), [[1.0], [-1.0]], format="csr"), np.full((2 * dims, 1), 2.0 * T)],
        format="csr",
    )
    w2 = sp.kron(sp.eye(dims), [[1.0, -1.0]], format="csr")
    b1 = np.full(2 * dims, -2.0 * T)
    return ReluNetwork((_layer(w1, b1, relu=True), _layer(w2, np.zeros(dims))))


def _identity_then_rows(width: int, rows: list[dict[int, float]], n_cols: int) -> sp.csr_matrix:
    """Identity on the first `width` units, then one row per {column: weight} dict."""
    ri = list(range(width)) + [width + t for t, row in enumerate(rows) for _ in row]
    ci = list(range(width)) + [col for row in rows for col in row]
    vals = [1.0] * width + [v for row in rows for v in row.values()]
    return sp.csr_matrix((vals, (ri, ci)), shape=(width + len(rows), n_cols))


def circuit_to_relu(c: BooleanCircuit) -> ReluNetwork:
    """Exact network computing the circuit on {-1,+1}^n inputs.

    Interior wires use {0,1} with 1 = True (input translation b = (1-x)/2,
    output translation x = 1 - 2b). Gates per level: AND = ReLU(sum - (k-1)),
    OR = ReLU(1 - ReLU(1 - sum)), NOT = ReLU(1 - y); earlier wires pass
    through ReLU identity rows (safe: all interior values are in {0,1}).
    """
    n = c.n_inputs
    layers = [_layer(sp.eye(n) * -0.5, np.full(n, 0.5))]  # +-1 -> {0,1}

    level = [0] * n + [0] * len(c.gates)
    for k, g in enumerate(c.gates):
        level[n + k] = 1 + max(level[r] for r in g.inputs)
    n_levels = max(level) if c.gates else 0

    wire_pos = {i: i for i in range(n)}  # reference -> position in current bundle
    width = n
    for lv in range(1, n_levels + 1):
        gates_here = [(k, g) for k, g in enumerate(c.gates) if level[n + k] == lv]
        ors = [k for k, g in gates_here if g.kind == "OR"]
        # sublayer A: passthrough + inner ReLU(1 - sum y_i) for OR gates; a dict
        # per row, so repeated references carry no extra logic
        inner = [{wire_pos[r]: -1.0 for r in c.gates[k].inputs} for k in ors]
        ba = np.concatenate([np.zeros(width), np.ones(len(ors))])
        layers.append(_layer(_identity_then_rows(width, inner, width), ba, relu=True))
        t_pos = {k: width + t for t, k in enumerate(ors)}
        # sublayer B: passthrough + gate outputs, drop the inner OR units
        rows, bias = [], []
        for t, (k, g) in enumerate(gates_here):
            if g.kind == "AND":  # ReLU(sum - (k-1)) over its k distinct inputs
                rows.append({wire_pos[r]: 1.0 for r in g.inputs})
            elif g.kind == "OR":
                rows.append({t_pos[k]: -1.0})
            else:  # NOT
                rows.append({wire_pos[g.inputs[0]]: -1.0})
            bias.append(1.0 - len(rows[-1]) if g.kind == "AND" else 1.0)
            wire_pos[n + k] = width + t
        bb = np.concatenate([np.zeros(width), bias])
        layers.append(_layer(_identity_then_rows(width, rows, width + len(ors)), bb, relu=True))
        width += len(gates_here)

    wout = _identity_then_rows(0, [{wire_pos[r]: -2.0} for r in c.outputs], width)
    layers.append(_layer(wout, np.ones(len(c.outputs))))  # {0,1} -> +-1
    return ReluNetwork(tuple(layers))


# --- score-network assembly -------------------------------------------------

# Clamp radius cap for per-coordinate compiled scores inside assembled nets.
# The family's tails are sub-Gaussian, so mass beyond 12 standard deviations
# is < 1e-30 and the capped clamp adds no measurable error while keeping
# hidden-layer width manageable.
_CLAMP_CAP_SDS = 12.0
# Vertex-identifier threshold of the small-sigma net: clamp(x_head/alpha, -1, 1) equals
# sign(x_head) wherever |x_head| > alpha.
_VERTEX_ALPHA = 0.5


def _linear_pl(slope: float, radius: float) -> PiecewiseLinear:
    """A globally linear function through the origin as a 2-piece object."""
    bp = np.array([-radius, radius])
    return PiecewiseLinear(bp, slope * bp, slope, slope)


def assemble_score_net_small_sigma(
    params: InstanceParams,
    f: BooleanCircuit,
    sigma: float,
    kappa: float,
) -> ReluNetwork:
    """Orthant-surrogate network: vertex identification, circuit evaluation of
    the phase bits, re-centered Gaussian scores on the first block, and
    switch-combined phase scores on the tail block."""
    d, dp, D = params.d, params.d_prime, params.dim
    v = 1.0 + sigma**2
    ap = ApproxParams(kappa, sigma, np.sqrt(v))  # validates kappa and sigma

    # per-coordinate pieces
    phase_pls = {}
    for b in (1, -1):
        spec = DiscreteGaussianSpec(params.eps, phase_of_bit(b, params.eps), sigma)
        phase_pls[b] = build_score_approx(
            lambda t, spec=spec: dg_smoothed_score(spec, t), ap, max_radius=_CLAMP_CAP_SDS * ap.m2
        )
    phase_nets = {b: compile_piecewise(pl) for b, pl in phase_pls.items()}
    gauss_net = compile_piecewise(_linear_pl(-1.0 / v, _CLAMP_CAP_SDS * np.sqrt(v)))
    T = float(np.ceil(max(np.abs(pl.values).max() for pl in phase_pls.values()))) + 1.0

    # stage 1: r = clamp(x_head/alpha, -1, 1), bundle [x; r; r]
    v1, v2 = vertex_identifier(d, _VERTEX_ALPHA).layers
    keep = np.zeros(D)
    s1a = Layer(
        sp.vstack([sp.eye(D), v1.w @ sp.eye(d, D)], format="csr"),  # v1 reads x_head
        np.concatenate([keep, v1.b]),
        np.concatenate([keep.astype(bool), v1.relu]),
    )
    s1b = _layer(
        sp.block_diag([sp.eye(D), sp.vstack([v2.w, v2.w])]), np.concatenate([keep, v2.b, v2.b])
    )
    stage1 = ReluNetwork((s1a, s1b))

    # stage 2: [x; r; r] -> [x; r; c]
    stage2 = compose_coordinatewise([identity_net(D + d), circuit_to_relu(f)])

    # stage 3: [x_head; x_tail; r; c] -> [u; x_tail; x_tail; c], u = x_head - R*r
    I, J = sp.eye(d), sp.eye(dp)
    w3 = sp.bmat([
        [I, None, -params.R * I, None],
        [None, J, None, None],
        [None, J, None, None],
        [None, None, None, J],
    ])
    stage3 = ReluNetwork((_layer(w3, np.zeros(d + 3 * dp)),))

    # stage 4: per-coordinate score nets; bundle [g; p+; p-; c]
    stage4 = compose_coordinatewise(
        [gauss_net] * d + [phase_nets[1]] * dp + [phase_nets[-1]] * dp + [identity_net(dp)]
    )

    # stage 5: out_head = g; out_tail_j = switch(p+_j, c_j) + switch(p-_j, -c_j), each
    # a one-coordinate switch_net; hidden units per j: [p+ pair; p- pair]
    s1, s2 = switch_net(1, T).layers
    x_w, y_w, zero = s1.w[:, :1], s1.w[:, 1:], sp.csr_matrix((2, 1))
    blocks = [sp.vstack([x_w, zero]), sp.vstack([zero, x_w]), sp.vstack([y_w, -y_w])]
    w5a = sp.hstack([sp.kron(J, blk, format="csr") for blk in blocks], format="csr")
    w5b = sp.kron(J, sp.hstack([s2.w, s2.w]), format="csr")
    switches = ReluNetwork(
        (Layer(w5a, np.tile(s1.b, 2 * dp), np.tile(s1.relu, 2 * dp)), _layer(w5b, np.zeros(dp)))
    )
    stage5 = compose_coordinatewise([identity_net(d, depth=2), switches])

    return chain(stage1, stage2, stage3, stage4, stage5)


def assemble_score_net_large_sigma(
    params: InstanceParams, sigma: float, kappa: float
) -> ReluNetwork:
    """Product network: compiled two-point-mixture score per head coordinate,
    exact linear score -x/(1+sigma^2) per tail coordinate."""
    v = 1.0 + sigma**2
    ap = ApproxParams(kappa, sigma, np.sqrt(params.R**2 + v))  # validates kappa and sigma
    head_pl = build_score_approx(
        lambda t: two_point_score(params.R, sigma, t), ap, max_radius=_CLAMP_CAP_SDS * ap.m2
    )
    head_net = compile_piecewise(head_pl)
    tail_net = compile_piecewise(_linear_pl(-1.0 / v, _CLAMP_CAP_SDS * np.sqrt(v)))
    return compose_coordinatewise([head_net] * params.d + [tail_net] * params.d_prime)


# --- text serialization ------------------------------------------------------


def network_to_text(net: ReluNetwork) -> str:
    """Self-describing text format: sparse triplets in row-major order."""
    lines = [f"# relu-network v1\nlayers {net.depth}"]
    for l in net.layers:
        coo = l.w.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines.append(f"layer {l.w.shape[0]} {l.w.shape[1]} {l.w.nnz}")
        for i, j, val in zip(coo.row[order], coo.col[order], coo.data[order]):
            lines.append(f"{i} {j} {val:.17g}")
        lines.append("bias " + " ".join(f"{v:.17g}" for v in l.b))
        lines.append("relu " + "".join("1" if m else "0" for m in l.relu))
    return "\n".join(lines) + "\n"


def network_from_text(text: str) -> ReluNetwork:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    it = iter(lines)
    head = next(it).split()
    if head[0] != "layers":
        raise ValueError("not a relu-network file")
    layers = []
    for _ in range(int(head[1])):
        tag, rows, cols, nnz = next(it).split()
        if tag != "layer":
            raise ValueError("malformed layer header")
        rows, cols, nnz = int(rows), int(cols), int(nnz)
        ri, ci, vi = [], [], []
        for _ in range(nnz):
            i, j, val = next(it).split()
            ri.append(int(i)), ci.append(int(j)), vi.append(float(val))
        w = sp.coo_matrix((vi, (ri, ci)), shape=(rows, cols)).tocsr()
        btoks = next(it).split()
        if btoks[0] != "bias":
            raise ValueError("malformed bias line")
        b = np.array([float(t) for t in btoks[1:]])
        mline = next(it).split()
        mask = np.array([ch == "1" for ch in mline[1]]) if len(mline) > 1 else np.zeros(rows, bool)
        layers.append(Layer(w, b, mask))
    return ReluNetwork(tuple(layers))
