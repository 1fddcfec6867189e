"""Pure logic of the end-to-end benchmark: reductions, parsing, checks.

Kept free of process and file handling so perfbench/tests can exercise it
directly.
"""

import json
import statistics

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class CheckFailed(Exception):
    """One pass of the program gave a wrong or unparseable result."""


def best_of_k(values, k):
    """Median of the minima of consecutive groups of at least k values.

    The values are cut into len(values) // k contiguous groups of near-equal
    size (one group when there are fewer than k).  A group's minimum drops
    the passes that a busy neighbour slowed down; the median of several
    minima keeps one lucky pass from setting the result.
    """
    if not values:
        raise ValueError("no values")
    if k < 1:
        raise ValueError("k must be >= 1")
    groups = max(1, len(values) // k)
    bounds = [round(i * len(values) / groups) for i in range(groups + 1)]
    return statistics.median(
        min(values[bounds[i]:bounds[i + 1]]) for i in range(groups))


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them.
    """
    if len(values) < 2:
        raise ValueError("need at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        raise ValueError("median is zero")
    return (q3 - q1) / abs(median)


def relative_drift(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        raise ValueError("first is zero")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def check_exit(code, expected):
    if code != expected:
        raise CheckFailed(f"exit code {code}, expected {expected}")


def parse_run_summary(text):
    """Digest fields of a `dagsched run` summary on stdout.

    Returns profit (as printed), completed, decisions and, when the run
    streamed events, the event count of the `wrote N events` line.
    """
    fields = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        words = rest.split()
        if sep and words:
            if key == "profit":
                fields["profit"] = words[0]
            elif key in ("completed", "decisions"):
                fields[key] = _whole(words[0], key)
        if line.startswith("wrote ") and " events to " in line:
            fields["events"] = _whole(line.split()[1], "events")
    missing = {"profit", "completed", "decisions"} - fields.keys()
    if missing:
        raise CheckFailed(f"summary lacks {sorted(missing)}")
    return fields


def parse_sweep_report(text):
    """Per-cell digest of a dagsched.sweep/1 JSONL report, keyed by
    (scheduler, engine)."""
    cells = {}
    header = None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise CheckFailed(f"sweep report line {number}: {error}")
        if record.get("kind") == "header":
            header = record
        elif record.get("kind") == "cell":
            if not record.get("ok"):
                raise CheckFailed(f"sweep cell {record.get('id')} failed")
            metrics = record["metrics"]
            key = (record["scheduler"], record["engine"])
            cells[key] = {
                "profit_exact": metrics["profit"],
                "completed": metrics["completed"],
                "decisions": metrics["decisions"],
            }
    if header is None or header.get("cells") != len(cells):
        raise CheckFailed("sweep report header and cells disagree")
    return cells


def library_sweep_cells(digest):
    """The library digest of a sweep in parse_sweep_report's shape."""
    return {
        (cell["scheduler"], cell["engine"]): {
            "profit_exact": cell["profit_exact"],
            "completed": cell["completed"],
            "decisions": cell["decisions"],
        }
        for cell in digest["cells"]
    }


def digest_mismatches(expected, actual, keys):
    """Names of the `keys` whose values differ (or are missing)."""
    return [key for key in keys
            if key not in actual or key not in expected
            or actual[key] != expected[key]]


def check_digest(expected, actual, keys, what):
    bad = digest_mismatches(expected, actual, keys)
    if bad:
        detail = ", ".join(
            f"{key}: {actual.get(key)!r} != {expected.get(key)!r}"
            for key in bad)
        raise CheckFailed(f"{what} disagrees on {detail}")


def fnv1a64(data):
    """FNV-1a 64-bit of a bytes object, as 16 hex digits."""
    value = FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return f"{value:016x}"


def check_layer_sum(metrics, self_names, tolerance_s=1e-6):
    """The named self times plus trace.unattributed_s must add up to
    trace.wall_s, and no self time may be negative."""
    parts = [metrics[name] for name in self_names]
    parts.append(metrics["trace.unattributed_s"])
    if min(parts) < -tolerance_s:
        raise CheckFailed("a layer self time is negative")
    if abs(sum(parts) - metrics["trace.wall_s"]) > tolerance_s:
        raise CheckFailed("layer self times do not sum to trace.wall_s")


def _whole(text, what):
    try:
        return int(text)
    except ValueError:
        raise CheckFailed(f"{what} is not a whole number: {text!r}")
