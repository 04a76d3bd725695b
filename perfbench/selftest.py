"""Self-test of the tracer: coverage, neutrality and the golden step count.

    python3 perfbench/selftest.py

Checks, on each workload's anchor round:

- installing the tracer rebinds every traced callable wherever anet binds
  it, and uninstalling restores every original;
- tracing on leaves every job's output byte-identical to tracing off;
- every per-layer metric is nonzero on the workloads its layer runs on,
  unless the traced call it needs no longer exists;
- criterion 1's golden run (base 27/8, threshold 1/4, word 101) records
  exactly 10 Network.step calls.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from fractions import Fraction

from run import HERE, import_anet

anet = import_anet()

import tracer  # noqa: E402
import workloads  # noqa: E402


def check_bindings(failures):
    tr = tracer.Tracer()
    originals = {}
    for module, path, _, _ in tracer.TARGETS:
        target = tracer.resolve(module, path)
        if target is not None:
            originals[(module, path)] = (target, tracer.bindings(target))
    with tr:
        for (module, path), (target, owners) in originals.items():
            for owner, attr in owners:
                if getattr(owner.__dict__[attr], "__wrapped__", None) is not target:
                    failures.append("%s.%s not patched at %r.%s" % (module, path, owner, attr))
    for (module, path), (target, owners) in originals.items():
        for owner, attr in owners:
            if owner.__dict__[attr] is not target:
                failures.append("%s.%s not restored at %r.%s" % (module, path, owner, attr))
    for module, attr in (("anet.quotient", "build_partition_refined"), ("anet.cli", "enumerate_language")):
        if not any(o is sys.modules[module] and a == attr for _, owners in originals.values() for o, a in owners):
            failures.append("%s.%s is not among the patched bindings" % (module, attr))


def check_golden(failures):
    net = anet.build_cut_acceptor(anet.cut_params(Fraction(27, 8), Fraction(1, 4)))
    tr = tracer.Tracer()
    with tr, tr.job("golden"):
        trace = anet.run_online(net, "101")
    steps = tr.totals()["network.step"][0]
    if steps != 10 or trace.verdicts != (True, False, True, False):
        failures.append("golden run recorded %d Network.step calls, want 10" % steps)


def check_workload(name, workdir, failures):
    wl = workloads.make(name)
    jobs = wl.round(0, workloads.round_rng(name, 0, 0))
    plain = [wl.run(job, workdir) for job in jobs]
    tr = tracer.Tracer()
    with tr:
        traced = []
        for k, job in enumerate(jobs):
            with tr.job("0.%d" % k):
                traced.append(wl.run(job, workdir))
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a.digest != b.digest:
            failures.append("%s job %d: traced output differs from untraced" % (name, k))
    metrics = tr.layer_metrics(len(jobs), 1.0)
    for metric, source, on in tracer.LAYER_METRICS:
        if name in on and source not in tr.missing | {None} and not metrics[metric] > 0:
            failures.append("%s: %s is zero" % (name, metric))
    print("%-14s %d anchor jobs traced, outputs identical: %s"
          % (name, len(jobs), all(a.digest == b.digest for a, b in zip(plain, traced))))


def main():
    failures = []
    check_bindings(failures)
    check_golden(failures)
    workdir = tempfile.mkdtemp(prefix="work-", dir=str(HERE))
    try:
        for name in workloads.WORKLOADS:
            check_workload(name, workdir, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures:
        print("FAIL", line)
    print("selftest: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
