"""The campaign ``validate`` step: one serial physics gate per app."""

import threading

import pytest

from repro.campaign.spec import StepSpec
from repro.campaign.steps import StepContext, execute
from repro.campaign.store import ResultStore
from repro.resilience.failures import FatalStepError


def _validate(tmp_path, app):
    step = StepSpec(id=f"validate-{app}", kind="validate",
                    config={"app": app})
    ctx = StepContext(step=step, attempt=0, workdir=tmp_path,
                      store=ResultStore(tmp_path / "store"), seed=2004,
                      cancel=threading.Event())
    return execute(ctx)


class TestValidateStep:
    #: the payloads are hashed into campaign.json, so they are exact
    PAYLOADS = {
        "lbmhd": {"app": "lbmhd", "mass_conserved": True,
                  "energy_decayed": True},
        "cactus": {"app": "cactus", "gauge_wave_ok": True},
        "gtc": {"app": "gtc", "particles": 2048, "conserved": True},
        "paratec": {"app": "paratec", "gap_in_band": True},
    }

    @pytest.mark.parametrize("app", sorted(PAYLOADS))
    def test_payload_is_exact(self, tmp_path, app):
        outcome = _validate(tmp_path, app)
        assert outcome.result == self.PAYLOADS[app]
        assert list(outcome.result) == list(self.PAYLOADS[app])
        assert outcome.artifacts == {}

    def test_unknown_app_is_fatal(self, tmp_path):
        with pytest.raises(FatalStepError, match="unknown app 'spark'"):
            _validate(tmp_path, "spark")
