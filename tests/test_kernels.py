from graphsl import _kernels


def test_backend_reports_known_name():
    assert _kernels.backend() == "numpy"
