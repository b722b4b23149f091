"""The fault-injection substrate: registry, modes, env specs, plant audit."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.exceptions import ConfigurationError, InjectedFault
from repro.runtime.failpoints import (
    ENV_VAR,
    FAILPOINTS,
    KNOWN_SITES,
    Activation,
    active,
    failpoint,
    parse_spec,
)

SRC_ROOT = Path(repro.__file__).resolve().parent


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


class TestRegistry:
    def test_disarmed_site_is_a_noop(self):
        failpoint("pipeline.iteration")  # must not raise

    def test_unknown_site_rejected_on_activation(self):
        with pytest.raises(ConfigurationError):
            FAILPOINTS.activate("no.such.site")

    def test_unknown_site_rejected_at_the_planted_call(self):
        with pytest.raises(ConfigurationError):
            failpoint("no.such.site")

    def test_activate_and_deactivate(self):
        FAILPOINTS.activate("checkpoint.read")
        with pytest.raises(InjectedFault):
            failpoint("checkpoint.read")
        FAILPOINTS.deactivate("checkpoint.read")
        failpoint("checkpoint.read")

    def test_context_manager_disarms_on_exit(self):
        with active("transform.evaluate"):
            with pytest.raises(InjectedFault):
                failpoint("transform.evaluate")
        failpoint("transform.evaluate")
        assert "transform.evaluate" not in FAILPOINTS.active_sites()

    def test_custom_exception_type(self):
        with active("pipeline.iteration", raises=OSError):
            with pytest.raises(OSError):
                failpoint("pipeline.iteration")

    def test_reset_disarms_everything(self):
        FAILPOINTS.activate("pipeline.iteration")
        FAILPOINTS.activate("checkpoint.write")
        FAILPOINTS.reset()
        assert FAILPOINTS.active_sites() == {}


class TestModes:
    def test_always_fires_every_hit(self):
        with active("generation.operator", mode="always") as act:
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    failpoint("generation.operator")
        assert act.hits == 3 and act.fired == 3

    def test_once_fires_only_the_first_hit(self):
        with active("generation.operator", mode="once") as act:
            with pytest.raises(InjectedFault):
                failpoint("generation.operator")
            failpoint("generation.operator")
            failpoint("generation.operator")
        assert act.fired == 1

    def test_nth_fires_exactly_the_nth_hit(self):
        with active("generation.operator", mode="nth", nth=3) as act:
            failpoint("generation.operator")
            failpoint("generation.operator")
            with pytest.raises(InjectedFault):
                failpoint("generation.operator")
            failpoint("generation.operator")
        assert act.fired == 1 and act.hits == 4

    def test_prob_is_deterministic_given_seed(self):
        def pattern(seed):
            fired = []
            with active(
                "generation.operator", mode="prob", probability=0.5, seed=seed
            ):
                for _ in range(20):
                    try:
                        failpoint("generation.operator")
                        fired.append(False)
                    except InjectedFault:
                        fired.append(True)
            return fired

        assert pattern(42) == pattern(42)
        assert any(pattern(42)) and not all(pattern(42))

    def test_invalid_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            Activation("pipeline.iteration", mode="sometimes")
        with pytest.raises(ConfigurationError):
            Activation("pipeline.iteration", mode="nth", nth=0)
        with pytest.raises(ConfigurationError):
            Activation("pipeline.iteration", mode="prob", probability=1.5)


class TestSpecParsing:
    def test_always_and_once(self):
        assert parse_spec("pipeline.iteration", "always").mode == "always"
        assert parse_spec("pipeline.iteration", "once").mode == "once"

    def test_nth(self):
        act = parse_spec("pipeline.iteration", "nth:4")
        assert act.mode == "nth" and act.nth == 4

    def test_prob_with_and_without_seed(self):
        act = parse_spec("pipeline.iteration", "prob:0.25")
        assert act.mode == "prob" and act.probability == 0.25 and act.seed == 0
        act = parse_spec("pipeline.iteration", "prob:0.25:7")
        assert act.seed == 7

    @pytest.mark.parametrize(
        "spec", ["", "nth", "nth:x", "prob", "prob:x", "maybe", "always:2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_spec("pipeline.iteration", spec)

    @pytest.mark.parametrize("spec", ["kill", "kill:2"])
    def test_worker_kill_mode_no_longer_exists(self, spec):
        # No fit starts a worker process, so there is nothing to kill.
        with pytest.raises(ConfigurationError):
            parse_spec("stream.shard.run", spec)


class TestEnvActivation:
    def test_load_env_arms_sites(self):
        FAILPOINTS.load_env("checkpoint.read=once, transform.evaluate=nth:2")
        sites = FAILPOINTS.active_sites()
        assert sites["checkpoint.read"].mode == "once"
        assert sites["transform.evaluate"].nth == 2

    def test_env_is_read_lazily_on_first_evaluation(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "checkpoint.read=always")
        FAILPOINTS._env_loaded = False
        with pytest.raises(InjectedFault):
            failpoint("checkpoint.read")

    def test_bad_env_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            FAILPOINTS.load_env("checkpoint.read")
        with pytest.raises(ConfigurationError):
            FAILPOINTS.load_env("no.such.site=always")


class TestPlantedSiteAudit:
    """KNOWN_SITES is honest: every name is planted, every plant is known."""

    def test_every_known_site_is_planted_and_vice_versa(self):
        pattern = re.compile(r"""failpoint\(\s*["']([^"']+)["']\s*\)""")
        planted = set()
        for path in SRC_ROOT.rglob("*.py"):
            if "__pycache__" in path.parts or path.name == "failpoints.py":
                continue  # the registry's own docstring shows the syntax
            planted.update(pattern.findall(path.read_text(encoding="utf-8")))
        assert planted == set(KNOWN_SITES)


class TestSiteDocs:
    """Every registered site carries a real docstring, and vice versa."""

    def test_registry_is_backed_by_site_docs(self):
        from repro.runtime.failpoints import SITE_DOCS

        assert set(SITE_DOCS) == set(KNOWN_SITES)

    def test_every_site_doc_is_non_empty_prose(self):
        from repro.runtime.failpoints import SITE_DOCS

        for name, doc in sorted(SITE_DOCS.items()):
            assert isinstance(doc, str) and len(doc.strip()) >= 20, (
                f"site {name!r} needs a meaningful docstring"
            )


class TestSpecErrors:
    """Malformed specs fail loudly, with the offending entry named."""

    @pytest.mark.parametrize(
        "spec", ["", "nth", "nth:x", "nth:0", "prob:2.0", "maybe", "always:2"]
    )
    def test_typed_error_names_the_offending_spec(self, spec):
        from repro.exceptions import FailpointSpecError

        with pytest.raises(FailpointSpecError) as excinfo:
            parse_spec("pipeline.iteration", spec)
        message = str(excinfo.value)
        assert "pipeline.iteration" in message
        assert repr(spec) in message

    def test_spec_error_is_a_configuration_error(self):
        from repro.exceptions import FailpointSpecError

        # callers catching ConfigurationError keep working
        assert issubclass(FailpointSpecError, ConfigurationError)

    def test_env_entry_without_equals_names_the_entry(self):
        from repro.exceptions import FailpointSpecError

        with pytest.raises(FailpointSpecError, match="checkpoint.read"):
            FAILPOINTS.load_env("checkpoint.read")

    def test_load_env_is_atomic_on_bad_entry(self):
        """A bad entry arms *nothing* — no partially-applied fault plans."""
        from repro.exceptions import FailpointSpecError

        with pytest.raises(FailpointSpecError):
            FAILPOINTS.load_env("checkpoint.read=once, transform.evaluate=nth:x")
        assert FAILPOINTS.active_sites() == {}
        failpoint("checkpoint.read")  # must not raise

    def test_load_env_atomic_on_unknown_site_too(self):
        with pytest.raises(ConfigurationError):
            FAILPOINTS.load_env("checkpoint.read=once, no.such.site=always")
        assert FAILPOINTS.active_sites() == {}
