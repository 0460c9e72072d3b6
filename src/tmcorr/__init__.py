"""Exact Thue-Morse sign correlations, transfer-matrix spectra, Gelfond
exponential sums, and class-pair solution counts.

Counting and correlation sums run over 1 <= n <= X; the exponential sum
runs over the first X indices 0 <= n < X.  Fast paths are exact integer
(or exact-phase) halving loops over the bits of X, with no recursion and no
size limit on X, and agree with the direct loops to the last digit; the
direct loops double as test oracles.
"""

from .digitseq import NAIVE_LIMIT, eps, class_of, eps_partial_sum, gelfond_count
from .correlation import (build_transfer, corr_fast, corr_naive,
                          dilation_naive, dilation_sum, shift_vectors)
from .spectral import (MonicIntPolynomial, RootFindingError, SpectralReport,
                       char_poly, cluster_roots, int_poly_gcd,
                       jordan_block_check, roots, spectral_report,
                       square_free_factors)
from .expsum import (RationalPhase, ScanResult, expsum_fast, expsum_naive,
                     product_formula, scan_alpha)
from .counting import (CountTable, count_adjacent, count_adjacent_fast,
                       count_classes_fast, count_classes_naive, count_tables)
from .report import ExponentFit, SumLadder, emit, fit_exponent

__version__ = "0.1.0"

__all__ = [
    "CountTable", "ExponentFit", "MonicIntPolynomial", "NAIVE_LIMIT",
    "RationalPhase", "RootFindingError", "ScanResult", "SpectralReport",
    "SumLadder", "build_transfer", "char_poly", "class_of",
    "cluster_roots", "corr_fast", "corr_naive", "count_adjacent",
    "count_adjacent_fast", "count_classes_fast", "count_classes_naive",
    "count_tables", "dilation_naive", "dilation_sum", "emit", "eps",
    "eps_partial_sum", "expsum_fast", "expsum_naive", "fit_exponent",
    "gelfond_count", "int_poly_gcd", "jordan_block_check", "product_formula",
    "roots", "scan_alpha", "shift_vectors", "spectral_report",
    "square_free_factors",
]
