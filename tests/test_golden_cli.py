"""Golden CLI payloads: every request below, on every problem file in
tests/data, must give the stored exit code and `--json` payload (without
timing_seconds) byte for byte.

The stored payloads live in tests/golden/<fixture>.json, one object per
fixture keyed by request.  After an intended output change, regenerate
them with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.  Exit-3 messages are pinned by their own tests, not
here.
"""

import json
import sys
from pathlib import Path

from fpowers.cli import run_command

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

REQUESTS = [
    ("theta",), ("witness",), ("bs-ideal",), ("nabla", "--point=-1,0"),
    ("spencer",), ("liouville",), ("hypotheses",), ("logder",),
    ("regularity",),
]


def requests(fixture: Path):
    """REQUESTS, then nabla at the all-ones point (onto, so the payload
    carries a certificate) and at the all-zeros point (not onto), each
    with one coordinate per factor of the fixture."""
    arity = len(json.loads(fixture.read_text(encoding="utf-8"))["factors"])
    return REQUESTS + [("nabla", "--point=" + ",".join([a] * arity))
                       for a in ("1", "0")]


def payloads(fixture: Path) -> str:
    """The stored text for one fixture: each request's exit code and its
    payload, without the timing, as indented JSON."""
    out = {}
    for cmd, *extra in requests(fixture):
        code, payload = run_command([cmd, "--input", str(fixture), "--json",
                                     *extra])
        payload = dict(payload)
        payload.pop("timing_seconds", None)
        out[" ".join([cmd, *extra])] = {"exit": code, "payload": payload}
    return json.dumps(out, indent=2) + "\n"


def fixtures():
    return sorted(DATA.glob("*.json"))


def test_golden_payloads_are_stored_for_every_fixture():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == \
        [f.name for f in fixtures()]


def test_cli_payloads_match_golden():
    for fixture in fixtures():
        stored = (GOLDEN / fixture.name).read_text(encoding="utf-8")
        assert payloads(fixture) == stored, fixture.name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fixture in fixtures():
        (GOLDEN / fixture.name).write_text(payloads(fixture), encoding="utf-8")
        print(f"wrote {GOLDEN / fixture.name}", file=sys.stderr)
