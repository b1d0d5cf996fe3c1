"""Finite-difference gradient checking, for tests of the tape's gradients."""

from dataclasses import dataclass, field

import numpy as np

from attnalign.tensor import Tape, Tensor, gradients


@dataclass
class GradCheckReport:
    """Per-parameter maximum relative error of autodiff vs central differences."""

    max_rel_error: dict = field(default_factory=dict)
    passed: bool = True

    @property
    def worst(self):
        return max(self.max_rel_error.values()) if self.max_rel_error else 0.0


def finite_diff_check(f, params, step=1e-5, tolerance=1e-6, denom_eps=1e-10):
    """Check the autodiff gradient of ``f`` against central finite differences.

    ``f`` maps a dict of named Tensors to a scalar Tensor. ``params`` is a
    dict of numpy arrays. The gradient comes from one evaluation on leaves
    of a fresh tape; every perturbed value from ``f`` on untracked leaves,
    which records nothing. Relative error per coordinate is
    |g_ad - g_fd| / max(|g_ad|, |g_fd|, denom_eps).
    """
    params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    tape = Tape()
    leaves = {k: tape.var(v) for k, v in params.items()}
    loss = f(leaves)
    if not np.isfinite(loss.data):
        raise ValueError("finite_diff_check: non-finite objective value")
    grads = gradients(tape, loss, leaves)

    def untracked():
        return f({k: Tensor(v) for k, v in params.items()}).data

    report = GradCheckReport()
    for name, value in params.items():
        g_ad = grads[name]
        worst = 0.0
        flat = value.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = untracked()
            flat[j] = orig - step
            lo = untracked()
            flat[j] = orig
            fd = (float(hi) - float(lo)) / (2.0 * step)
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError(
                    f"finite_diff_check: non-finite value perturbing {name}[{j}]"
                )
            ad = float(g_ad.reshape(-1)[j])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), denom_eps)
            worst = max(worst, rel)
        report.max_rel_error[name] = worst
    report.passed = report.worst < tolerance
    return report
