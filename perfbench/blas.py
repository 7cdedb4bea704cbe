"""Thread settings for every process the benchmark starts.

BLAS and OpenMP are pinned to one thread before numpy is imported.  With
default OpenBLAS threading and one other busy core, 20 omega-identity
samples took 0.76 s instead of 0.15 s; one thread is no slower on an idle
machine.
"""

BLAS_ENV = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
