"""Count decompositions where they run: at NumPy's LAPACK gufuncs.

``matcore``'s kernels and ``numpy.linalg`` both look each gufunc up in
``numpy.linalg._umath_linalg`` at call time, so one patch of a gufunc there
sees every decomposition, whichever route calls it.
"""

from numpy.linalg import _umath_linalg

# decomposition -> the gufuncs that run it; a QR runs two, and counts at its factorization
GUFUNCS = {
    "eigh": ("eigh_lo", "eigh_up"),
    "eigvalsh": ("eigvalsh_lo", "eigvalsh_up"),
    "svd": ("svd", "svd_s", "svd_f"),
    "qr": ("qr_r_raw",),
    "det": ("det",),
    "slogdet": ("slogdet",),
}


def spy(monkeypatch, record, decompositions=tuple(GUFUNCS)):
    """Call record(decomposition, operand) before each gufunc call that runs one of ``decompositions``.

    A QR's operand is a copy that its factorization then overwrites.
    """
    for name in decompositions:
        for gufunc in GUFUNCS[name]:
            def spied(a, *args, _real=getattr(_umath_linalg, gufunc), _name=name, **kwargs):
                record(_name, a)
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(_umath_linalg, gufunc, spied)
