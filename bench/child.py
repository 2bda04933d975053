"""One fresh process per cocyclelab command, as a researcher runs it.

    python3 bench/child.py RESULT.json TRACE.json|- [cocyclelab arguments ...]

Measures set-up (importing cocyclelab with numpy, building the parser and
loading the report schema), then runs one ``cli.main`` call and writes
its exit code, its seconds and the process's peak resident memory to
RESULT.json.  With no cocyclelab arguments only set-up is measured.
Nothing but the standard library is imported before the set-up clock
starts.

Untraced, a speed probe runs alongside (see SpeedProbe).  With a TRACE
path the traced-run recorder is installed after set-up instead, and its
summary is written there.
"""

import json
import math
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE_INTERVAL_S = 0.05


class _Pair:
    def __init__(self, a, b):
        self.a = a
        self.b = b


def _probe_kernel() -> float:
    # small-object churn and libm calls, like cocyclelab's per-point loops
    acc = 0.0
    for i in range(1500):
        p = _Pair(math.cos(i * 1e-3), math.sin(i * 1e-3))
        acc += math.hypot(p.a, p.b)
    return acc


class SpeedProbe:
    """Times a fixed kernel every PROBE_INTERVAL_S, interleaved with the work.

    The host's speed drifts by tens of percent over seconds to minutes,
    and the kernel's time moves with cocyclelab's.  A SIGALRM handler runs
    the kernel between bytecodes of whatever the process is doing, so each
    timed window carries a measure of how fast the machine ran during it.
    The kernel's own seconds are taken out of the window.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_):
        t0 = time.perf_counter()
        _probe_kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def window(self, first: int, seconds: float) -> tuple[float, float]:
        """(seconds minus the kernel runs since sample `first`, mean kernel seconds).

        The mean includes the sample just before the window, so it is never empty.
        """
        inside = self.samples[first:]
        around = self.samples[first - 1:]
        return seconds - math.fsum(inside), math.fsum(around) / len(around)


def main() -> int:
    result_path, trace_path, cli_argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    traced = trace_path != "-"

    probe = SpeedProbe()
    probe.sample()
    if not traced:
        probe.start()

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from cocyclelab import cli, reports

    cli.build_parser()
    reports.load_schema()
    setup_s, setup_probe_s = probe.window(1, time.perf_counter() - t0)

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"cocyclelab imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    recorder = None
    if traced:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()

    out = {"setup_s": setup_s, "setup_probe_s": setup_probe_s,
           "exit_code": None, "wall_s": None, "wall_probe_s": None}
    if cli_argv:
        first = len(probe.samples)
        t1 = time.perf_counter()
        out["exit_code"] = cli.main(cli_argv)
        out["wall_s"], out["wall_probe_s"] = probe.window(first, time.perf_counter() - t1)
    probe.stop()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if recorder is not None:
        recorder.write(trace_path)
    with open(result_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
