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
        for key in ("rho", "b0"):
            object.__setattr__(self, key, number(getattr(self, key), key))
        if self.family in ("soft-power", "rotational") and not self.rho < 1.0:
            raise InputError("soft-power/rotational families require rho < 1")
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


def jacobian_a(model: VectorPotentialModel, t, x) -> np.ndarray:
    """Matrix with entry (j, k) = d a_j / d x_k; batched over leading axes.

    `t` broadcasts to x.shape[:-1], as in `eval_a`.  The batch axes are
    stored last, so that each entry is one contiguous run over the batch.
    """
    x = _check_point(model, x)
    n = model.n
    shape = (n, n) + x.shape[-2::-1]  # the transpose's shape
    if model.family == "zero":
        return np.zeros(shape).T
    if model.family == "soft-power":  # entry (j, k) is ((c amp_j) x_k) <x>^(rho-2)
        amp = np.reshape(model.amplitude, (n,) + (1,) * (x.ndim - 1))
        J = x.T[:, None] * (_modulated(model, np.transpose(t), model.rho) * amp)
        J *= (bracket(x) ** (model.rho - 2.0)).T
        return J.T
    J = np.zeros(shape).T
    if model.family == "rotational":
        x1, x2 = x[..., 0], x[..., 1]
        b = bracket(x)
        pm1 = b ** (model.rho - 1.0)
        pm3 = b ** (model.rho - 3.0)
        c = _modulated(model, t, model.amplitude[0])
        J[..., 0, 0] = c * (model.rho - 1.0) * x1 * x2 * pm3
        J[..., 0, 1] = c * ((model.rho - 1.0) * x2 * x2 * pm3 + pm1)
        J[..., 1, 0] = -c * ((model.rho - 1.0) * x1 * x1 * pm3 + pm1)
        J[..., 1, 1] = -c * (model.rho - 1.0) * x1 * x2 * pm3
        return J
    J[..., 0, 1] = -0.5 * model.b0  # constant-field
    J[..., 1, 0] = 0.5 * model.b0
    return J


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
