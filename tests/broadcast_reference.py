"""The vector potential, its Jacobian and the flow's vector field written
as whole-array broadcasts and one einsum, for bit-for-bit pins.

`eval_a`, `jacobian_a` and `characteristics._vector_field` compute the same
products one component, or one Jacobian entry, at a time over the batch.
Each element keeps the order of its products, so both give the same bits;
these formulas are the reference the pins compare against.
"""

import numpy as np

from mswf import potentials as pots


def _modulated(model, t, c, axes):
    """c g(t), with g(t) given the new `axes` to broadcast against c."""
    return c if model.modulation == "one" else c * np.expand_dims(model.g(t), axes)


def _bracket(x):
    return np.sqrt(1.0 + np.sum(x * x, axis=-1))


def eval_a(model, t, x):
    if model.family == "zero":
        return np.zeros_like(x)
    if model.family == "soft-power":
        p = _bracket(x) ** model.rho
        return _modulated(model, t, np.asarray(model.amplitude), -1) * p[..., None]
    if model.family == "rotational":
        p = _bracket(x) ** (model.rho - 1.0)
        perp = np.stack([x[..., 1], -x[..., 0]], axis=-1)
        return _modulated(model, t, model.amplitude[0], -1) * p[..., None] * perp
    return 0.5 * model.b0 * np.stack([-x[..., 1], x[..., 0]], axis=-1)


def jacobian_a(model, t, x):
    batch = x.shape[:-1]
    if model.family == "zero":
        return np.zeros(batch + (model.n, model.n))
    if model.family == "soft-power":
        pm2 = _bracket(x) ** (model.rho - 2.0)
        amp = np.asarray(model.amplitude)
        return (_modulated(model, t, model.rho, (-2, -1)) * amp[..., :, None]
                * x[..., None, :] * pm2[..., None, None])
    J = np.zeros(batch + (2, 2))
    if model.family == "rotational":
        x1, x2 = x[..., 0], x[..., 1]
        b = _bracket(x)
        pm1 = b ** (model.rho - 1.0)
        pm3 = b ** (model.rho - 3.0)
        c = model.amplitude[0] if model.modulation == "one" else model.amplitude[0] * model.g(t)
        J[..., 0, 0] = c * (model.rho - 1.0) * x1 * x2 * pm3
        J[..., 0, 1] = c * ((model.rho - 1.0) * x2 * x2 * pm3 + pm1)
        J[..., 1, 0] = -c * ((model.rho - 1.0) * x1 * x1 * pm3 + pm1)
        J[..., 1, 1] = -c * (model.rho - 1.0) * x1 * x2 * pm3
        return J
    J[..., 0, 1] = -0.5 * model.b0
    J[..., 1, 0] = 0.5 * model.b0
    return J


def vector_field(model, s, x, xi):
    v = xi - eval_a(model, s, x)
    return v, np.einsum("...kj,...k->...j", jacobian_a(model, s, x), v)


# every family and time factor, soft-power with unequal amplitudes
MODELS = {
    "zero-1": pots.zero_model(1),
    "zero-2": pots.zero_model(2),
    "soft-power-1-one": pots.soft_power_model(1, 0.5, amplitude=0.7),
    "soft-power-1-sin": pots.soft_power_model(1, -0.3, amplitude=1.3, modulation="sin"),
    "soft-power-2-one": pots.soft_power_model(2, 0.5, amplitude=(0.7, -0.4)),
    "soft-power-2-sin": pots.soft_power_model(2, 0.25, amplitude=(1.1, 0.3),
                                              modulation="sin"),
    "rotational-one": pots.rotational_model(0.5, amplitude=1.7),
    "rotational-sin": pots.rotational_model(-0.5, amplitude=0.9, modulation="sin"),
    "constant-field": pots.constant_field_model(1.5),
}

# batch shapes: one point, one group of K, and G groups of K (the flow's
# small lower-bound batches and its large scan batches among them)
BATCHES = [(), (7,), (1, 16), (3, 5), (80, 45)]


def cases():
    """(model id, batch, time kind) for every model, batch shape and time:
    a scalar time, and for grouped batches one time per group, (G, 1)."""
    return [(name, batch, kind) for name in MODELS for batch in BATCHES
            for kind in ("scalar", "per-group") if kind == "scalar" or len(batch) == 2]


def draw(name, batch, kind, seed=0):
    """The model, times, points (the origin first, if there are several)
    and momenta of a case."""
    model = MODELS[name]
    rng = np.random.default_rng(seed)
    t = 0.7 if kind == "scalar" else rng.uniform(-3.0, 3.0, (batch[0], 1))
    x = rng.uniform(-5.0, 5.0, batch + (model.n,))
    if x.size > model.n:
        x.reshape(-1, model.n)[0] = 0.0
    xi = rng.uniform(-20.0, 20.0, batch + (model.n,))
    return model, t, x, xi
