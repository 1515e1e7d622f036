"""Vector-potential families with analytic first derivatives.

Built-in families are chosen so that growth of every spatial derivative is
controlled by a power of the regularized distance <x> = sqrt(1 + |x|^2):

  zero            a = 0
  soft-power      a_j = amp_j g(t) <x>^rho                (rho < 1 conforming)
  rotational      a = amp g(t) <x>^(rho-1) (x2, -x1)      (n = 2, rho < 1)
  constant-field  a = (B0/2) (-x2, x1)                    (n = 2, grows linearly,
                                                           deliberately non-conforming)

Every family is a = g(t) a0(x) in n = 1 or 2, with g in MODULATIONS (1 or
sin t); the constant field takes only g = 1.  The decay hypothesis
|d^alpha a| <= C <x>^(rho-|alpha|) is asserted by family: the model's
`conforming` holds it for the conforming families, and nothing samples it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, integer, number, one_of

FAMILIES = ("zero", "soft-power", "rotational", "constant-field")

MODULATIONS = {
    "one": lambda t: np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 1.0,
    "sin": np.sin,
}


def squared_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, the same bits as np.sum(x * x, axis=-1).

    For the model dimensions (n <= 2) numpy's reduction adds the squares
    one by one in axis order, as this loop does, but at a per-point cost.
    """
    out = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        out += x[..., i] * x[..., i]
    return out


def bracket(x: np.ndarray) -> np.ndarray:
    """<x> = sqrt(1 + |x|^2) over the last axis."""
    b2 = squared_norm(np.asarray(x, dtype=float))
    b2 += 1.0
    return np.sqrt(b2)


@dataclass(frozen=True)
class VectorPotentialModel:
    """Immutable description of a time-dependent vector potential a(t, x)."""

    family: str
    n: int
    rho: float = 0.0
    amplitude: tuple = ()
    modulation: str = "one"
    b0: float = 1.0

    def __post_init__(self):
        one_of(self.family, FAMILIES, "family")
        object.__setattr__(self, "n", integer(self.n, "n"))
        if self.n not in (1, 2):
            raise InputError(f"dimension must be 1 or 2, got {self.n}")
        if self.family in ("rotational", "constant-field") and self.n != 2:
            raise InputError(f"family '{self.family}' is two-dimensional")
        one_of(self.modulation, MODULATIONS, "modulation")
        if self.family == "constant-field" and self.modulation != "one":
            raise InputError("family 'constant-field' takes no modulation but 'one'")
        rho_below = 1.0 if self.family in ("soft-power", "rotational") else np.inf
        object.__setattr__(self, "rho", number(self.rho, "rho", below=rho_below))
        object.__setattr__(self, "b0", number(self.b0, "b0"))
        count = 1 if self.family == "rotational" else self.n
        amp = self.amplitude
        if not isinstance(amp, (tuple, list, np.ndarray)):  # one for every component
            amp = (amp,) * count
        amp = tuple(number(v, "amplitude") for v in amp) or (1.0,) * count
        if len(amp) != count:
            raise InputError(f"family '{self.family}' in n = {self.n} takes {count} "
                             f"amplitude(s), got {len(amp)}")
        object.__setattr__(self, "amplitude", amp)

    @property
    def conforming(self) -> bool:
        """Whether the family satisfies the <x>^(rho-|alpha|) derivative bounds."""
        return self.family != "constant-field"  # which grows linearly

    def g(self, t):
        return MODULATIONS[self.modulation](t)


def zero_model(n: int) -> VectorPotentialModel:
    return VectorPotentialModel("zero", n)


def soft_power_model(n: int, rho: float, amplitude=1.0, modulation="one") -> VectorPotentialModel:
    return VectorPotentialModel("soft-power", n, rho=rho, amplitude=amplitude,
                                modulation=modulation)


def rotational_model(rho: float, amplitude=1.0, modulation="one") -> VectorPotentialModel:
    return VectorPotentialModel("rotational", 2, rho=rho, amplitude=amplitude,
                                modulation=modulation)


def constant_field_model(b0: float = 1.0) -> VectorPotentialModel:
    return VectorPotentialModel("constant-field", 2, b0=b0)


# ---------------------------------------------------------------------------
# evaluation


def _check_point(model: VectorPotentialModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (model.n,):
        raise InputError(f"point dimension {x.shape[-1:]} != model dimension {model.n}")
    return x


def _modulated(model: VectorPotentialModel, t, c):
    """c g(t); under modulation "one" this is c itself, with no array of
    ones: a product with 1.0 is exact, so the bits are those of c * g(t)."""
    return c if model.modulation == "one" else c * model.g(t)


def eval_a(model: VectorPotentialModel, t, x) -> np.ndarray:
    """Vector potential values; batched over leading axes of x.

    `t` is a time, or an array of times that broadcasts to x.shape[:-1],
    such as one time per group of points of shape (G, 1) for x of shape
    (G, K, n).  Each point gets the same bits as a scalar-t call at its
    time, which the grouped flow relies on.
    """
    x = _check_point(model, x)
    if model.family == "zero":
        return np.zeros_like(x)
    if model.family == "constant-field":
        return 0.5 * model.b0 * np.stack([-x[..., 1], x[..., 0]], axis=-1)
    # one component at a time over the whole batch; each element is (c g(t)) p
    # in this order, as a scalar-time call computes it
    a = np.empty(x.shape)
    if model.family == "soft-power":
        p = bracket(x) ** model.rho
        for j, amp in enumerate(model.amplitude):
            np.multiply(_modulated(model, t, amp), p, out=a[..., j])
        return a
    p = _modulated(model, t, model.amplitude[0]) * bracket(x) ** (model.rho - 1.0)
    np.multiply(p, x[..., 1], out=a[..., 0])  # rotational: p (x2, -x1)
    np.multiply(p, -x[..., 0], out=a[..., 1])
    return a


def _field(model: VectorPotentialModel, t, x) -> tuple:
    """a's components, and J(j, k) = d a_j / d x_k, which forms that one
    entry over the batch when called; <x> and each power of it are taken
    once.  Every element keeps the order of its products in the whole-array
    formulas (tests/broadcast_reference.py), so the components are the
    bits of `eval_a`'s.
    """
    n, xs = model.n, [x[..., k] for k in range(model.n)]
    if model.family == "zero":
        return [0.0] * n, lambda j, k: 0.0
    if model.family == "constant-field":
        h = 0.5 * model.b0
        J = [[0.0, -h], [h, 0.0]]
        return [h * -xs[1], h * xs[0]], lambda j, k: J[j][k]
    b = bracket(x)
    if model.family == "soft-power":  # J_jk = (x_k (c rho amp_j)) <x>^(rho-2)
        p, pm2 = b ** model.rho, b ** (model.rho - 2.0)
        coef = [_modulated(model, t, model.rho) * amp for amp in model.amplitude]
        return ([_modulated(model, t, amp) * p for amp in model.amplitude],
                lambda j, k: xs[k] * coef[j] * pm2)
    x1, x2 = xs  # rotational: a = c <x>^(rho-1) (x2, -x1)
    pm1, pm3 = b ** (model.rho - 1.0), b ** (model.rho - 3.0)
    c, r = _modulated(model, t, model.amplitude[0]), model.rho - 1.0
    p = c * pm1
    # J_11 = -c r x1 x2 pm3 is -J_00 bit for bit, as negation is exact
    q = c * r * x1 * x2 * pm3
    J = [[q, c * (r * x2 * x2 * pm3 + pm1)], [-c * (r * x1 * x1 * pm3 + pm1), -q]]
    return [p * x2, p * -x1], lambda j, k: J[j][k]


def jacobian_a(model: VectorPotentialModel, t, x) -> np.ndarray:
    """Matrix with entry (j, k) = d a_j / d x_k; batched over leading axes.

    `t` broadcasts to x.shape[:-1], as in `eval_a`.
    """
    x = _check_point(model, x)
    _, entry = _field(model, t, x)
    J = np.empty(x.shape + (model.n,))
    for j in range(model.n):
        for k in range(model.n):
            J[..., j, k] = entry(j, k)
    return J


def flow_field(model: VectorPotentialModel, t, x, xi, out=None) -> tuple:
    """The flow's vector field (v, dxi) = (xi - a, (grad_x a)^T (xi - a)).

    Batched over the leading axes of x and xi, with `t` broadcasting to
    x.shape[:-1] as in `eval_a`.  `out`, if given, is a pair of arrays of
    x's shape, such as views into a right-hand side's state buffer, that
    receive v and dxi; the pair is returned.  One pass takes <x> once,
    each power of it once, and forms each Jacobian entry only where
    dxi_k = J_0k v_0 + J_1k v_1 uses it, so v and dxi are the bits of
    `eval_a`, `jacobian_a` and that sum.
    """
    x, xi = _check_point(model, x), np.asarray(xi, dtype=float)
    a, entry = _field(model, t, x)
    v, dxi = (np.empty(x.shape), np.empty(x.shape)) if out is None else out
    # one component at a time: ufuncs on a strided (..., n) view are slow
    vs, dxis = [v[..., j] for j in range(model.n)], [dxi[..., k] for k in range(model.n)]
    for j, vj in enumerate(vs):
        np.subtract(xi[..., j], a[j], out=vj)
    for k, dxik in enumerate(dxis):
        np.multiply(entry(0, k), vs[0], out=dxik)
        for j in range(1, model.n):
            dxik += entry(j, k) * vs[j]
    return v, dxi


def divergence_a(model: VectorPotentialModel, t, x) -> np.ndarray:
    """div a, in closed form (rotational and constant-field are 0).

    `t` broadcasts to x.shape[:-1], as in `eval_a`.
    """
    x = _check_point(model, x)
    batch = x.shape[:-1]
    if model.family in ("zero", "rotational", "constant-field"):
        return np.zeros(batch)
    pm2 = bracket(x) ** (model.rho - 2.0)  # soft-power
    amp = np.asarray(model.amplitude)
    return _modulated(model, t, model.rho) * np.sum(amp * x, axis=-1) * pm2


def magnetic_field(model: VectorPotentialModel, t: float, x) -> np.ndarray:
    """Antisymmetrized Jacobian B_jk = d_j a_k - d_k a_j, exact by construction."""
    J = jacobian_a(model, t, x)
    return np.swapaxes(J, -1, -2) - J
