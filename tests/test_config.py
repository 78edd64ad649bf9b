from cartanbundle.config import Tolerances, default_tolerances


def test_environment_does_not_scale_the_defaults(monkeypatch):
    # Tolerances come only from a Tolerances value; no variable rescales them.
    monkeypatch.setenv("CARTAN_BUNDLE_TOL_SCALE", "2")
    assert default_tolerances() == Tolerances()
    assert default_tolerances() is default_tolerances()
