"""Findings model shared by the runtime verifier and the static lint.

Every check has a stable ID (``RA1xx`` runtime, ``RA2xx`` static) so that
CI greps, docs and suppressions never chase renamed messages.  A
:class:`Finding` pins one violation to a rank / virtual time / call site
(runtime) or a file:line (static); the two reporters render the same list
as human-readable text or as JSON for tooling.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field


#: check id -> (kind, severity, one-line title)
CHECKS: dict[str, tuple[str, str, str]] = {
    "RA101": ("runtime", "error",
              "collective sequence mismatch across communicator ranks"),
    "RA102": ("runtime", "error",
              "request leak: nonblocking operation never wait/test-completed"),
    "RA103": ("runtime", "error",
              "buffer hazard: buffer reused while a nonblocking op is in flight"),
    "RA104": ("runtime", "error",
              "unmatched point-to-point send/recv at program exit"),
    "RA105": ("runtime", "warning",
              "tag collision: concurrent identical p2p envelopes (FIFO-order dependent)"),
    "RA106": ("runtime", "error",
              "deadlock: event queue drained with ranks still suspended"),
    "RA107": ("runtime", "error",
              "waitany called with an empty request list"),
    "RA201": ("static", "error",
              "generator comm call without 'yield from'"),
    "RA202": ("static", "error",
              "Request returned by a nonblocking call is discarded"),
    "RA203": ("static", "error",
              "dup_many result indexed out of range of N_DUP"),
    "RA204": ("static", "error",
              "nondeterministic time/random use inside repro.sim / repro.mpi"),
    "RA205": ("static", "error",
              "buffer mutated between isend() and the wait() that completes it"),
    "RA206": ("static", "error",
              "wait/waitall on a request variable never assigned from a comm call"),
    "RA301": ("plan", "error",
              "deadlock: send/recv dependency cycle across ranks"),
    "RA302": ("plan", "error",
              "unmatched plan op: a send without its recv (or vice versa)"),
    "RA303": ("plan", "error",
              "matched send/recv disagree on element range or byte count"),
    "RA304": ("plan", "error",
              "unsound zero-copy bit: alias-free send overlaps an in-flight write"),
    "RA305": ("plan", "warning",
              "pessimistic copy bit: snapshot taken for a provably alias-free send"),
    "RA306": ("plan", "error",
              "schedule structure depends on a replay-safe fabric constant"),
    "RA307": ("plan", "error",
              "malformed plan op (bad kind, peer, range or precomputed size)"),
    "RA308": ("plan", "error",
              "channel claim out of fabric range, or two disjoint colors "
              "sharing one (link, channel) resource"),
}


@dataclass(frozen=True)
class Finding:
    """One violation reported by a check.

    ``rank``/``time`` are set by runtime checks (``None`` for static ones);
    ``site`` is a ``file:line`` / ``file:line in func`` location — the user
    call site for runtime findings, the offending source line for lint ones.
    """

    check: str
    message: str
    rank: int | None = None
    time: float | None = None
    site: str | None = None
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def severity(self) -> str:
        return CHECKS[self.check][1]

    @property
    def title(self) -> str:
        return CHECKS[self.check][2]

    def to_jsonable(self) -> dict:
        return {
            "check": self.check,
            "severity": self.severity,
            "message": self.message,
            "rank": self.rank,
            "time": self.time,
            "site": self.site,
            "extra": dict(self.extra),
        }

    def render(self) -> str:
        where = []
        if self.site:
            where.append(self.site)
        if self.rank is not None:
            where.append(f"rank {self.rank}")
        if self.time is not None:
            where.append(f"t={self.time:.9g}s")
        loc = " | ".join(where)
        head = f"{self.check} [{self.severity}]"
        return f"{head} {loc}: {self.message}" if loc else f"{head}: {self.message}"


def render_text(findings: list[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary line."""
    lines = [f.render() for f in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(f"{len(findings)} finding(s): {errors} error(s), "
                 f"{warnings} warning(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable report (a JSON array of finding objects)."""
    return json.dumps([f.to_jsonable() for f in findings], indent=1)


#: SARIF severity levels by finding severity.
_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def _sarif_location(site: str | None) -> dict | None:
    """Physical location for a ``file:line[ in func]`` site, if it parses.

    Plan-level findings carry symbolic sites (plan keys, rank/round
    coordinates) instead of file positions; those stay in the message text
    and produce no SARIF location.
    """
    if not site:
        return None
    head = site.split(" in ")[0]
    path, _, line = head.rpartition(":")
    if not path or not line.isdigit():
        return None
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {"startLine": int(line)},
        }
    }


def render_sarif(findings: list[Finding], tool_name: str = "repro.analysis") -> str:
    """SARIF 2.1.0 report — what CI uploads so code hosts annotate findings.

    Every check in :data:`CHECKS` appears as a rule (stable IDs again), and
    each finding becomes one ``result``; findings with ``file:line`` sites
    carry a physical location, symbolic (plan) sites ride in the message.
    """
    rules = [
        {
            "id": check,
            "shortDescription": {"text": title},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(severity, "note"),
            },
        }
        for check, (_kind, severity, title) in sorted(CHECKS.items())
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = []
    for f in findings:
        message = f.message
        where = []
        if f.rank is not None:
            where.append(f"rank {f.rank}")
        if f.time is not None:
            where.append(f"t={f.time:.9g}s")
        if where:
            message = f"{message} [{', '.join(where)}]"
        result = {
            "ruleId": f.check,
            "ruleIndex": rule_index[f.check],
            "level": _SARIF_LEVELS.get(f.severity, "note"),
            "message": {"text": message},
        }
        loc = _sarif_location(f.site)
        if loc is not None:
            result["locations"] = [loc]
        elif f.site:
            result["message"]["text"] += f" (at {f.site})"
        results.append(result)
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(doc, indent=1)


_LIBRARY_DIRS = ("repro/mpi", "repro/analysis", "repro/sim")


def call_site(frame=None) -> str | None:
    """Best-effort user call site: innermost stack frame outside the library,
    walking outward from ``frame`` (default: the caller's frame).

    Generator delegation (``yield from``) keeps the whole rank-program call
    chain on the Python stack while a comm method executes, so walking
    outward from the hook frame finds the program line that issued the
    operation.  Pure introspection — never touches the simulation clock,
    and never reads source files: the frames are walked directly, not
    through :mod:`traceback` (which stats and reads every frame's file).
    """
    if frame is None:
        frame = sys._getframe(1)
    while frame is not None:
        code = frame.f_code
        filename = code.co_filename.replace("\\", "/")
        if not any(d in filename for d in _LIBRARY_DIRS):
            return f"{filename}:{frame.f_lineno} in {code.co_name}"
        frame = frame.f_back
    return None
