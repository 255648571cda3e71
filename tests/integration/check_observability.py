#!/usr/bin/env python3
"""Validates the run artifacts a journaled cable-cli script run must
produce: a Chrome trace-event JSON (Perfetto-loadable shape), a
cable-metrics/1 snapshot, and a cable-run-report/1 document — plus the
black-box artifacts of the logging layer.

Usage:
  check_observability.py TRACE METRICS REPORT
  check_observability.py --log FILE
  check_observability.py --crashdump FILE [--expect-failpoint NAME]
                         [--expect-span NAME ...]

With --log the file must be cable-log/1 JSONL: a header object followed
by records from the header's pid with strictly increasing sequence
numbers.

With --crashdump the file must be one cable-crashdump/1 JSON document
whose span_stacks holds the one recording thread (tid 1, "main").
--expect-failpoint NAME additionally requires the captured log tail to
end in a failpoint-crash record naming that failpoint — the black box
must identify what killed the process. Each --expect-span NAME names one
span that was open at the crash, outermost first; together they must be
that thread's whole stack.

Exits non-zero with a message on the first violated invariant.
"""

import json
import sys


def fail(msg):
    print("check_observability: FAIL:", msg)
    sys.exit(1)


LEVELS = ("debug", "info", "warn", "error")


def check_log(path):
    """cable-log/1 JSONL: header, then this process's records by seq."""
    lines = [ln for ln in open(path).read().splitlines() if ln]
    if not lines:
        fail("log file is empty")
    try:
        docs = [json.loads(ln) for ln in lines]
    except ValueError as e:
        fail("log line is not JSON: %s" % e)
    header, records = docs[0], docs[1:]
    if header.get("schema") != "cable-log/1":
        fail("bad log schema %r" % header.get("schema"))
    for key in ("tool", "pid"):
        if key not in header:
            fail("log header missing %r" % key)
    # A signal-interrupted run writes the header from the async-signal-safe
    # dumper, which reads only the crash ring; only those headers may omit
    # the counter.
    if "dropped" not in header and not header.get("interrupted"):
        fail("log header missing 'dropped'")
    if header.get("dropped", 0) < 0:
        fail("negative dropped count %r" % header["dropped"])

    last = None
    for rec in records:
        for key in ("seq", "pid", "tid", "t_us", "level", "event",
                    "subsystem", "msg"):
            if key not in rec:
                fail("record missing %r: %r" % (key, rec))
        if rec["level"] not in LEVELS:
            fail("bad level %r" % rec["level"])
        for code in (rec["event"], rec["subsystem"]):
            if not code or not all(c.islower() or c.isdigit() or c == "-"
                                   for c in code):
                fail("event/subsystem not kebab-case: %r" % code)
        if rec["pid"] != header["pid"]:
            fail("record pid %d is not the header's %d"
                 % (rec["pid"], header["pid"]))
        if last is not None and rec["seq"] <= last:
            fail("seq not increasing: %d after %d" % (rec["seq"], last))
        last = rec["seq"]
    print("check_observability: OK (log: %d records, %s dropped)"
          % (len(records), header.get("dropped", "?")))


def check_crashdump(path, expect_failpoint, expect_spans):
    """One cable-crashdump/1 document; optionally pin the cause and the
    open spans."""
    try:
        dump = json.load(open(path))
    except ValueError as e:
        fail("crash dump is not JSON: %s" % e)
    if dump.get("schema") != "cable-crashdump/1":
        fail("bad crash dump schema %r" % dump.get("schema"))
    for key in ("tool", "pid", "reason", "log_records", "span_stacks",
                "metrics"):
        if key not in dump:
            fail("crash dump missing %r" % key)
    if dump["reason"] not in ("signal", "terminate", "unhandled-exception",
                              "failpoint-crash"):
        fail("unknown crash reason %r" % dump["reason"])
    if dump["reason"] == "signal" and "signal" not in dump:
        fail("signal dump carries no signal number")
    for section in ("counters", "gauges", "histograms"):
        if section not in dump["metrics"]:
            fail("crash dump metrics missing %r" % section)
    for rec in dump["log_records"]:
        if "event" not in rec or "seq" not in rec:
            fail("malformed captured log record %r" % rec)
    stacks = dump["span_stacks"]
    if (len(stacks) != 1 or stacks[0].get("tid") != 1
            or stacks[0].get("thread") != "main"
            or not isinstance(stacks[0].get("stack"), list)):
        fail("span_stacks is not the one main thread's stack: %r" % stacks)
    if expect_spans and stacks[0]["stack"] != expect_spans:
        fail("open spans %r, expected %r" % (stacks[0]["stack"], expect_spans))
    if expect_failpoint:
        crash_recs = [r for r in dump["log_records"]
                      if r["event"] == "failpoint-crash"]
        if not crash_recs:
            fail("no failpoint-crash record in the captured log tail")
        name = crash_recs[-1].get("fields", {}).get("name")
        if name != expect_failpoint:
            fail("crash record names failpoint %r, expected %r"
                 % (name, expect_failpoint))
    print("check_observability: OK (crash dump: reason %s, %d log records, "
          "open spans %r)" % (dump["reason"], len(dump["log_records"]),
                              stacks[0]["stack"]))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--log":
        if len(sys.argv) < 3:
            fail("usage: --log FILE")
        check_log(sys.argv[2])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "--crashdump":
        if len(sys.argv) < 3:
            fail("usage: --crashdump FILE [--expect-failpoint NAME] "
                 "[--expect-span NAME ...]")
        expect, spans = None, []
        opts = sys.argv[3:]
        for at in range(0, len(opts), 2):
            if opts[at] not in ("--expect-failpoint", "--expect-span"):
                fail("unknown option %r" % opts[at])
            if at + 1 >= len(opts):
                fail("%s needs a name" % opts[at])
            if opts[at] == "--expect-failpoint":
                expect = opts[at + 1]
            else:
                spans.append(opts[at + 1])
        check_crashdump(sys.argv[2], expect, spans)
        return

    if len(sys.argv) != 4:
        fail("usage: TRACE METRICS REPORT")
    trace_path, metrics_path, report_path = sys.argv[1:4]
    trace = json.load(open(trace_path))
    metrics = json.load(open(metrics_path))
    report = json.load(open(report_path))

    # --- trace: the object form Perfetto/chrome://tracing accept.
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    for ev in events:
        if ev["ph"] not in ("X", "M"):
            fail("unexpected event phase %r" % ev["ph"])
        if ev["ph"] == "X" and (ev["ts"] < 0 or ev["dur"] < 0):
            fail("negative ts/dur in %r" % ev)
    names = {ev.get("name") for ev in events}
    for want in ("session-init", "lattice-build", "next-closure-enumerate",
                 "lattice-covers", "journal-fsync", "cmd status", "cmd label"):
        if want not in names:
            fail("missing span %r (have %s)" % (want, sorted(names)))
    threads = {ev["args"]["name"] for ev in events
               if ev.get("name") == "thread_name"}
    if "main" not in threads:
        fail("main thread not named")
    if "otherData" not in trace or "git_sha" not in trace["otherData"]:
        fail("otherData build stamp missing")

    # --- metrics snapshot.
    if metrics["schema"] != "cable-metrics/1":
        fail("bad metrics schema %r" % metrics["schema"])
    counters = metrics["metrics"]["counters"]
    if counters.get("lattice.closures", 0) <= 0:
        fail("lattice.closures not counted")
    if counters.get("journal.appends", 0) <= 0:
        fail("journal.appends not counted")
    hist = metrics["metrics"]["histograms"]
    if hist.get("journal.fsync-us", {}).get("count", 0) <= 0:
        fail("journal.fsync-us histogram empty under --journal-sync always")

    # --- run report.
    if report["schema"] != "cable-run-report/1":
        fail("bad report schema %r" % report["schema"])
    if report["tool"] != "cable-cli":
        fail("bad tool %r" % report["tool"])
    if report["exit_code"] != 0 or not report["clean_exit"]:
        fail("run report says the run failed: %r" % report)
    if "--journal" not in report["args"]:
        fail("args not recorded")
    for key in ("version", "git_sha", "build_type"):
        if key not in report:
            fail("report missing %r" % key)

    print("check_observability: OK (%d trace events, %d counters)"
          % (len(events), len(counters)))


if __name__ == "__main__":
    main()
