"""The paper's closed-form Whitney block of the two-fan mesh family: the
oracle that the assembled Whitney star and Table 1's Whitney column are
checked against."""

import math

import numpy as np


def fig8_whitney_entries(P: float):
    """Closed-form Whitney block coefficients (alpha, beta, gamma, delta)."""
    alpha = (12 * P ** 2 + 1) / (24 * P)
    beta = (4 * P ** 2 - 1) / (48 * P)
    gamma = (12 * P ** 2 + 20 * math.sqrt(3) * P + 21) / (144 * P)
    delta = (4 * P ** 2 - 5) / (48 * P)
    return alpha, beta, gamma, delta


def fig8_whitney_block(P: float) -> np.ndarray:
    """The published 5x5 Whitney block.  Off-diagonal delta entries appear
    with the sign induced by sorted-vertex edge orientations, which matches
    the published magnitudes; the spectrum is orientation-independent."""
    a, b, g, d = fig8_whitney_entries(P)
    return np.array([
        [a, b, b, b, b],
        [b, g, 0, d, 0],
        [b, 0, g, 0, d],
        [b, d, 0, g, 0],
        [b, 0, d, 0, g],
    ])


def fig8_whitney_condition(P: float) -> float:
    s3 = math.sqrt(3)
    num = (24 * P ** 2 + 5 * s3 * P
           + math.sqrt(288 * P ** 4 - 120 * s3 * P ** 3 + 3 * P ** 2 + 9) + 3)
    return num / (10 * s3 * P + 18)
