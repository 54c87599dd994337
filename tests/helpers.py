"""Statistics shared by the tests that compare two draws."""
import math


def two_proportion_z(count_a, n_a, count_b, n_b):
    """z of the difference of two proportions under their pooled rate."""
    pooled = (count_a + count_b) / (n_a + n_b)
    se = math.sqrt(max(pooled * (1 - pooled) * (1 / n_a + 1 / n_b), 1e-12))
    return (count_b / n_b - count_a / n_a) / se
