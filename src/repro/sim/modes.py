"""Simulation modes for the schedule executor.

``FULL_UNROLL`` is the oracle: every instance of every iteration is
simulated event by event. ``STEADY_STATE`` exploits the periodicity the
paper proves (Sections 2.2/3.2): after the ``R_max * p`` prologue the
loop kernel repeats identically every period, so once two consecutive
round-boundary machine-state fingerprints match, the remaining rounds are
fast-forwarded in O(1) by replaying the converged per-round stats delta
and splicing timestamps. The two modes are aggregate-identical --
``repro.verify``'s ``differential_simulate`` check holds them to it.

``COLUMNAR`` and ``COLUMNAR_STEADY`` are the array-backed twins of the
two object modes (:mod:`repro.sim.columnar`): same event-order semantics
via the same ``(time, priority, content key, seq)`` tie-break, executed
on flat per-PE/vault/port timeline arrays and precomputed static tables
instead of the object graph. ``COLUMNAR`` matches ``FULL_UNROLL``
signature-for-signature; ``COLUMNAR_STEADY`` adds the same convergence
detection and O(1) fast-forward as ``STEADY_STATE``.

:data:`DEFAULT_SIM_MODE` names the production engine, ``COLUMNAR_STEADY``:
every serving tier, eval experiment and CLI that picks an engine on the
caller's behalf uses it. Object ``STEADY_STATE`` is kept only as the
reference implementation the convergence cross-checks compare against,
and ``FULL_UNROLL`` stays the oracle (and ``ScheduleExecutor``'s own
default).
"""

from __future__ import annotations

import argparse
import enum


class SimMode(enum.Enum):
    """How the executor advances through the ``N`` logical iterations."""

    #: Simulate every instance (the oracle; O(V*N) events).
    FULL_UNROLL = "full"
    #: Detect steady state via machine fingerprints, fast-forward the rest.
    STEADY_STATE = "steady"
    #: Array-backed full fidelity: every instance, columnar machine state.
    COLUMNAR = "columnar"
    #: Array-backed steady state: columnar rounds + convergence splice.
    COLUMNAR_STEADY = "columnar_steady"

    @property
    def is_columnar(self) -> bool:
        """Whether this mode runs on the array engine."""
        return self in (SimMode.COLUMNAR, SimMode.COLUMNAR_STEADY)

    @property
    def detects_steady_state(self) -> bool:
        """Whether this mode fingerprints boundaries and fast-forwards."""
        return self in (SimMode.STEADY_STATE, SimMode.COLUMNAR_STEADY)

    @classmethod
    def from_name(cls, name: "str | SimMode") -> "SimMode":
        """Parse a CLI-style mode name, leniently.

        Accepts each mode's value plus hyphenated and legacy spellings.
        ``fast`` names the production engine (``columnar_steady``);
        ``steady`` is the object reference engine.
        """
        if isinstance(name, cls):
            return name
        normalized = str(name).strip().lower().replace("-", "_")
        aliases = {
            "full": cls.FULL_UNROLL,
            "full_unroll": cls.FULL_UNROLL,
            "unroll": cls.FULL_UNROLL,
            "steady": cls.STEADY_STATE,
            "steady_state": cls.STEADY_STATE,
            "fast": cls.COLUMNAR_STEADY,
            "columnar": cls.COLUMNAR,
            "array": cls.COLUMNAR,
            "columnar_full": cls.COLUMNAR,
            "columnar_steady": cls.COLUMNAR_STEADY,
            "array_steady": cls.COLUMNAR_STEADY,
        }
        try:
            return aliases[normalized]
        except KeyError:
            known = ", ".join(sorted(aliases))
            raise ValueError(
                f"unknown sim mode {name!r}; known: {known}"
            ) from None


#: The production engine: bit-identical to the full unroll and the
#: fastest verified path, so every default that picks an engine uses it.
DEFAULT_SIM_MODE: SimMode = SimMode.COLUMNAR_STEADY


def _cli_sim_mode(text: str) -> SimMode:
    try:
        return SimMode.from_name(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_sim_mode_argument(
    parser: argparse.ArgumentParser,
    default: "SimMode | None" = DEFAULT_SIM_MODE,
    help: str = "",
) -> None:
    """Add the shared ``--sim-mode`` flag, parsed to a :class:`SimMode`.

    Every CLI derives its choices from the enum here, so the parsers
    cannot drift from the modes the executor accepts.
    """
    names = ",".join(mode.value for mode in SimMode)
    parser.add_argument(
        "--sim-mode",
        type=_cli_sim_mode,
        default=default,
        metavar="{" + names + "}",
        help=(
            f"{help}{'; ' if help else ''}"
            f"'{DEFAULT_SIM_MODE.value}' is the production engine, "
            "'steady' the object reference, 'full' the event-by-event oracle"
        ),
    )
