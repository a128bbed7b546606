from jointwork import _kernels


def test_active_backend_value():
    assert _kernels.ACTIVE_BACKEND == "numpy"
    assert _kernels.HAVE_NUMBA is False
