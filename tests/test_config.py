from cartanbundle.config import ENV_TOL_SCALE, default_tolerances


def test_tol_scale_variable_is_read_on_every_call(monkeypatch):
    monkeypatch.setenv(ENV_TOL_SCALE, "2")
    assert default_tolerances().orth == 2e-9
    assert default_tolerances() is default_tolerances()
    monkeypatch.delenv(ENV_TOL_SCALE)
    assert default_tolerances().orth == 1e-9
