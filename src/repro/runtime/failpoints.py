"""Deterministic fault-injection points (the chaos-testing substrate).

A *failpoint* is a named site planted in production code that normally
costs one dict lookup and does nothing. Tests (or an operator debugging
a deployment) can *activate* a site so that reaching it raises — which
turns "the IV count pass died mid-fit" or "the checkpoint write was cut
short" from an unreproducible incident into a deterministic test case.

Sites are a closed registry (:data:`KNOWN_SITES`): planting a new
``failpoint("...")`` call requires adding its name here, so the set of
injectable faults is auditable in one place and a typo'd activation
fails fast instead of silently never firing.

Activation modes (all deterministic):

* ``always`` — every hit raises;
* ``once``   — the first hit raises, later hits pass;
* ``nth``    — exactly the *n*-th hit of the site raises (1-based);
* ``prob``   — each hit raises with probability *p* drawn from a
  *seeded* ``random.Random`` stream, so a given seed yields the same
  hit pattern on every run.

Activation is per-process: via the API (:func:`activate` /
:func:`active`, typically from a test) or via the ``REPRO_FAILPOINTS``
environment variable, e.g.::

    REPRO_FAILPOINTS="pipeline.iteration=nth:2,transform.evaluate=prob:0.1:42"

The environment is read lazily on the first failpoint evaluation. By
default a triggered site raises :class:`~repro.exceptions.InjectedFault`;
API activations may supply another exception type (e.g. ``OSError``)
to emulate a specific infrastructure failure.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..exceptions import ConfigurationError, FailpointSpecError, InjectedFault

#: Every plantable site, with a one-paragraph docstring describing where
#: the site sits and what real-world fault it models. Extend this dict
#: when planting a new failpoint — the site-registry meta-test fails on
#: an undocumented (or orphaned) entry.
SITE_DOCS: "dict[str, str]" = {
    "generation.operator": (
        "Once per planned expression during feature generation. Models an "
        "operator implementation raising on real data; drives the "
        "quarantine-vs-raise policy (SAFEConfig.on_operator_error)."
    ),
    "selection.select": (
        "At the top of the selection stage (IV filter onward). Models a "
        "selection pass dying before any statistic is merged."
    ),
    "checkpoint.write": (
        "Between the two halves of a plan-checkpoint temp-file write in "
        "CheckpointManager.save. Models a crash mid-write: only the hidden "
        ".tmp is partial, the previous checkpoint survives."
    ),
    "checkpoint.read": (
        "At the top of CheckpointManager.load. Models an unreadable or "
        "poisoned checkpoint file, driving the skip-with-reason path."
    ),
    "transform.evaluate": (
        "Once per expression inside FeatureTransformer.transform. Models a "
        "serving-time evaluation fault; drives errors=\"null\" degradation."
    ),
    "pipeline.iteration": (
        "At the end of each completed SAFE.fit iteration, after its "
        "checkpoint is persisted. Models a process killed between "
        "iterations — the canonical resume-from-checkpoint scenario."
    ),
    # Serving-loop sites (see repro.serving): admission, one per
    # expression-evaluation step, a deadline-burning slow operator,
    # and a hot-swap candidate that fails its self-test.
    "serve.admit": (
        "During request admission in ServingSession.serve_one. Models an "
        "admission-path fault turning into a rejected (never wrong) response."
    ),
    "serve.operator": (
        "Once per expression evaluation in the serving loop. Models a "
        "poisoned expression; drives per-expression circuit breakers."
    ),
    "serve.slow_operator": (
        "Inside expression evaluation in the serving loop, burning the "
        "request deadline instead of raising. Drives deadline degradation."
    ),
    "serve.bad_swap_plan": (
        "Inside the hot-swap self-test in ServingSession.swap_plan. Models "
        "a candidate plan that loads but fails its probe row; the swap must "
        "roll back."
    ),
    # Streaming-fit recovery sites (see repro.core.stream and friends).
    "stream.shard.run": (
        "At the top of the out-of-core fit's IV count pass "
        "(repro.parallel.parallel_stream_iv_counts), after the sel-edges "
        "stage and before any IV count is merged. Models the fit dying "
        "inside selection; a resume reuses the checkpointed edges and "
        "recounts."
    ),
    "stream.chunk.read": (
        "Before each chunk yield in ChunkedDataset.iter_chunks. Models an "
        "I/O fault reading one chunk of the backing store mid-pass."
    ),
    "stream.stats.checkpoint": (
        "Between the temp-file write and the atomic rename of a "
        "sufficient-statistic snapshot in StatsCheckpointStore.save. Models "
        "a crash mid-checkpoint: the snapshot directory never holds a torn "
        "file, and a resume falls back to recomputing the stage."
    ),
}

#: Every plantable site. Derived from :data:`SITE_DOCS`.
KNOWN_SITES = frozenset(SITE_DOCS)

#: Environment variable holding comma-separated ``site=spec`` activations.
ENV_VAR = "REPRO_FAILPOINTS"

_MODES = ("always", "once", "nth", "prob")


@dataclass
class Activation:
    """One activated failpoint: trigger mode plus hit bookkeeping."""

    name: str
    mode: str = "always"
    nth: "int | None" = None
    probability: "float | None" = None
    seed: "int | None" = 0
    raises: type = InjectedFault
    hits: int = 0
    fired: int = 0
    _rng: "random.Random | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.name not in KNOWN_SITES:
            raise ConfigurationError(
                f"unknown failpoint {self.name!r}; known sites: "
                f"{sorted(KNOWN_SITES)}"
            )
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"failpoint mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.mode == "nth":
            if self.nth is None or self.nth < 1:
                raise ConfigurationError("nth mode needs nth >= 1 (1-based)")
        if self.mode == "prob":
            if self.probability is None or not 0.0 <= self.probability <= 1.0:
                raise ConfigurationError("prob mode needs probability in [0, 1]")
            self._rng = random.Random(self.seed)

    def should_fire(self, hit: int) -> bool:
        """Whether the ``hit``-th evaluation (1-based) triggers the fault."""
        if self.mode == "always":
            return True
        if self.mode == "once":
            return hit == 1
        if self.mode == "nth":
            return hit == self.nth
        return self._rng.random() < self.probability  # type: ignore[union-attr]


def parse_spec(name: str, spec: str) -> Activation:
    """Parse one ``site=spec`` value: ``always`` | ``once`` | ``nth:K`` |
    ``prob:P[:SEED]``.

    Every failure — unknown site, unknown mode, malformed numbers, out of
    range parameters — raises :class:`~repro.exceptions.FailpointSpecError`
    naming the full offending ``site=spec`` entry, so a chaos config typo
    is one actionable line instead of a context-free ``ValueError`` (or,
    worse, a spec that silently never fires).
    """

    def bad(why: str, cause: "Exception | None" = None) -> FailpointSpecError:
        err = FailpointSpecError(
            f"bad failpoint spec {name}={spec!r}: {why} "
            "(expected always | once | nth:K | prob:P[:SEED])"
        )
        err.__cause__ = cause
        return err

    parts = spec.split(":")
    mode = parts[0].strip().lower()
    try:
        if mode in ("always", "once") and len(parts) == 1:
            return Activation(name, mode=mode)
        if mode == "nth" and len(parts) == 2:
            try:
                nth = int(parts[1])
            except ValueError as exc:
                raise bad(f"{parts[1]!r} is not an integer", exc) from exc
            return Activation(name, mode="nth", nth=nth)
        if mode == "prob" and len(parts) in (2, 3):
            try:
                probability = float(parts[1])
                seed = int(parts[2]) if len(parts) == 3 else 0
            except ValueError as exc:
                raise bad("probability/seed must be numeric", exc) from exc
            return Activation(name, mode="prob", probability=probability, seed=seed)
    except FailpointSpecError:
        raise
    except ConfigurationError as exc:
        # Activation.__post_init__ rejected the site name or a parameter
        # range; re-raise naming the entry the bad value came from.
        raise bad(str(exc), exc) from exc
    raise bad(f"unknown or malformed mode {spec!r}")


class FailpointRegistry:
    """Process-wide registry of activated failpoints (thread-safe)."""

    def __init__(self) -> None:
        self._active: "dict[str, Activation]" = {}
        self._lock = threading.Lock()
        self._env_loaded = False

    # -- activation management -----------------------------------------
    def activate(
        self,
        name: str,
        mode: str = "always",
        nth: "int | None" = None,
        probability: "float | None" = None,
        seed: "int | None" = 0,
        raises: type = InjectedFault,
    ) -> Activation:
        """Arm ``name``; replaces any previous activation of the site."""
        activation = Activation(
            name,
            mode=mode,
            nth=nth,
            probability=probability,
            seed=seed,
            raises=raises,
        )
        with self._lock:
            self._active[name] = activation
        return activation

    def deactivate(self, name: str) -> None:
        with self._lock:
            self._active.pop(name, None)

    def reset(self) -> None:
        """Disarm everything (and mark the environment as consumed)."""
        with self._lock:
            self._active.clear()
            self._env_loaded = True

    def load_env(self, text: "str | None" = None) -> None:
        """Apply ``REPRO_FAILPOINTS``-style activations from ``text`` (or
        the real environment when ``None``).

        Parsing is all-or-nothing: every entry is validated *before* any
        activation is installed, so a malformed spec cannot leave the
        earlier entries half-armed — the registry is exactly as it was,
        and the raised :class:`~repro.exceptions.FailpointSpecError`
        names the offending entry.
        """
        if text is None:
            text = os.environ.get(ENV_VAR, "")
        parsed: "list[Activation]" = []
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, spec = entry.partition("=")
            if not sep:
                raise FailpointSpecError(
                    f"bad {ENV_VAR} entry {entry!r} (expected site=spec)"
                )
            parsed.append(parse_spec(name.strip(), spec.strip()))
        with self._lock:
            for activation in parsed:
                self._active[activation.name] = activation
            self._env_loaded = True

    def active_sites(self) -> "dict[str, Activation]":
        with self._lock:
            return dict(self._active)

    # -- the hot path ---------------------------------------------------
    def evaluate(self, name: str) -> None:
        """Called by planted sites; raises when the site is armed and due."""
        if name not in KNOWN_SITES:
            raise ConfigurationError(
                f"failpoint site {name!r} is not registered in KNOWN_SITES"
            )
        if not self._env_loaded:
            self.load_env()
        activation = self._active.get(name)
        if activation is None:
            return
        with self._lock:
            activation.hits += 1
            hit = activation.hits
            fire = activation.should_fire(hit)
            if fire:
                activation.fired += 1
        if fire:
            raise activation.raises(
                f"injected fault at failpoint {name!r} (hit {hit})"
            )


#: The process-wide registry used by every planted site.
FAILPOINTS = FailpointRegistry()


def failpoint(name: str) -> None:
    """The planted-site entry point: near-free unless ``name`` is armed."""
    FAILPOINTS.evaluate(name)


@contextmanager
def active(
    name: str,
    mode: str = "always",
    nth: "int | None" = None,
    probability: "float | None" = None,
    seed: "int | None" = 0,
    raises: type = InjectedFault,
) -> Iterator[Activation]:
    """Scoped activation for tests: armed inside the block, disarmed after."""
    activation = FAILPOINTS.activate(
        name, mode=mode, nth=nth, probability=probability, seed=seed, raises=raises
    )
    try:
        yield activation
    finally:
        FAILPOINTS.deactivate(name)
