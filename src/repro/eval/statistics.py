"""Statistical helpers for the evaluation (confidence intervals).

The paper reports point estimates over 10,000 cases; reduced-scale runs
of this reproduction need error bars to be honest about sampling noise.
:func:`wilson_interval` is the Wilson score interval for proportions
(recovery rates), well-behaved near 0 and 1 where the normal interval is
not — pure Python, no scipy dependency at runtime.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..errors import EvaluationError

#: Two-sided z quantiles for the supported confidence levels.
_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}


def _z_for(confidence: float) -> float:
    try:
        return _Z[confidence]
    except KeyError:
        raise EvaluationError(
            f"unsupported confidence {confidence}; choose from {sorted(_Z)}"
        ) from None


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise EvaluationError("wilson_interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise EvaluationError(f"successes {successes} outside [0, {trials}]")
    z = _z_for(confidence)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))
