"""Benchmark of the whitebox_tools_ray engine: one workload, one seed.

    python3 layerbench/run.py --workload tiling --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``tiling``,
``spatial_join``, ``raster_clip``. One driver process runs a closed loop
on one local Ray session with a fixed 2 Ray CPUs: one pass at a time,
each pass's output checked against an oracle built with the inputs.

Set-up (``setup_s``) is engine import + Ray start + the input check (the
median of three digest checks of the cached inputs) + one checked warm-up
pass. Inputs missing from the cache are generated first, untimed.

``--trace 0`` measures passes for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs untraced passes for half the
window, traced passes (each layer called separately, materialized at
every boundary, ``ds.stats()`` parsed) for the other half, then replays
the kernels on a fixed input sample, and reports the per-layer metrics.

stdout ends with a context line (host, per-pass figures, failures) and
the result line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RAY_CPUS = 2
OBJECT_STORE_BYTES = 768 * 1024 * 1024
HANG_S = 60.0  # a pass slower than this counts as failed
RELEASE_TIMEOUT_S = 30.0
QUIET_INTERVAL_S = 0.25  # Ray is settled when its processes use less than
QUIET_CPU_SHARE = 0.1  # this share of one CPU over one such interval
RUN_LIMIT_S = 172.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["tiling", "spatial_join", "raster_clip"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--cache-dir", default=os.path.join(BENCH_DIR, ".work", "inputs"),
                   help="where seeded inputs and oracles are cached")
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    """One Ray session, the process-tree sampler and the pass loop."""

    def __init__(self, wl, tree):
        self.wl = wl
        self.tree = tree
        self.passes: list[dict] = []

    def wait_released(self) -> float:
        """Seconds until every Ray CPU is free again after a pass and the
        Ray processes have settled (worker processes the pass started or
        stopped are done starting or exiting), so passes start alike."""
        import ray

        t0 = time.perf_counter()
        while ray.available_resources().get("CPU", 0) < RAY_CPUS and time.perf_counter() - t0 < RELEASE_TIMEOUT_S:
            time.sleep(0.02)
        prev = self.tree.ray_cpu()
        while time.perf_counter() - t0 < RELEASE_TIMEOUT_S:
            time.sleep(QUIET_INTERVAL_S)
            cur = self.tree.ray_cpu()
            if cur - prev < QUIET_CPU_SHARE * QUIET_INTERVAL_S:
                break
            prev = cur
        return time.perf_counter() - t0

    def one_pass(self, tracer=None) -> dict:
        """One pass, its check and the settling after it. The pass's CPU is
        everything its process tree used during the pass plus what the
        Ray processes used until they settled, so worker and actor
        processes started or stopped on its behalf are charged to it."""
        from layerbench import procs

        rec = {"traced": tracer is not None, "ok": False, "layers": None}
        handle = None
        procs.driver_rss_peak_reset()
        w = self.tree.open_window()
        t0 = time.perf_counter()
        try:
            try:
                if tracer is None:
                    handle = self.wl.run_pass()
                else:
                    with tracer.span("pass"):
                        rec["layers"], handle = self.wl.traced_pass(tracer)
            finally:
                rec["wall_s"] = time.perf_counter() - t0
                self.tree.close_window(w)
                rec["driver_rss_mb"] = procs.driver_rss_peak_mb()
                after = self.tree.open_window()
            rec["items"] = handle["items"]
            self.wl.check(handle)
            rec["ok"] = rec["wall_s"] < HANG_S
        except Exception:  # a failed pass is counted, the loop goes on
            traceback.print_exc()
        finally:
            if handle is not None:
                self.wl.release(handle)
            rec["release_wait_s"] = self.wait_released()
            self.tree.close_window(after)
        rec["pass_cpu"] = w.cpu
        rec["cpu"] = {k: v + (after.cpu[k] if k != "driver" else 0.0) for k, v in w.cpu.items()}
        rec["pss_mb"] = w.peak_pss_kb / 1024.0
        self.passes.append(rec)
        return rec

    def loop(self, seconds: float, tracer=None) -> list[dict]:
        out = []
        t0 = time.perf_counter()
        while not out or time.perf_counter() - t0 < seconds:
            out.append(self.one_pass(tracer))
        return out


def _med(recs, fn):
    vals = [fn(r) for r in recs if r["ok"]]
    if not vals:
        raise RuntimeError("no successful pass to report")
    return statistics.median(vals)


def end_to_end(runs: list[dict], setup_s: float) -> dict:
    items = _med(runs, lambda r: r["items"])
    return {
        "setup_s": setup_s,
        "items_per_s": items / _med(runs, lambda r: r["wall_s"]),
        "cpu_us_per_item": _med(runs, lambda r: sum(r["cpu"].values())) / items * 1e6,
        "driver_peak_rss_mb": _med(runs, lambda r: r["driver_rss_mb"]),
        "peak_pss_mb": _med(runs, lambda r: r["pss_mb"]),
    }


def per_layer(untraced: list[dict], traced: list[dict], kernels: dict, names) -> dict:
    m = dict.fromkeys(names, 0.0)  # layers the workload bypasses read 0
    ok = [r for r in traced if r["ok"]]
    for name in ok[0]["layers"] if ok else ():
        m[name] = _med(ok, lambda r: r["layers"][name])
    m.update(kernels)
    m["driver.cpu_s"] = _med(traced, lambda r: r["cpu"]["driver"])
    m["workers.cpu_s"] = _med(traced, lambda r: r["cpu"]["worker"])
    m["workers.idle_share"] = _med(
        traced, lambda r: max(0.0, 1.0 - r["pass_cpu"]["worker"] / (RAY_CPUS * r["wall_s"])))
    m["workers.release_wait_s"] = _med(untraced + traced, lambda r: r["release_wait_s"])
    m["trace.overhead_ratio"] = _med(traced, lambda r: r["wall_s"]) / _med(untraced, lambda r: r["wall_s"])
    return m


class RunTimeout(BaseException):
    """Raised by SIGALRM; not an Exception, so no pass handler swallows it."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S:.0f} s")


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "whitebox_tools_ray", "__init__.py")):
        print(f"engine sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers inherit the driver's environment, not its sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    names = declared_metrics(args.trace)

    from layerbench import inputs, procs, workloads

    host = procs.HostContext(RAY_CPUS)
    tree = procs.ProcTree()
    work_dir = os.path.join(BENCH_DIR, ".work", "out")
    shutil.rmtree(work_dir, ignore_errors=True)  # outputs a failed run left
    os.makedirs(work_dir)

    t0 = time.perf_counter()
    import whitebox_tools_ray.pipelines.flagship  # noqa: F401
    import whitebox_tools_ray.pipelines.relational  # noqa: F401
    import whitebox_tools_ray.stages.clip_raster  # noqa: F401
    import whitebox_tools_ray.stages.spatial_join  # noqa: F401

    import_s = time.perf_counter() - t0

    wl = workloads.WORKLOADS[args.workload](args.seed, inputs.InputCache(args.cache_dir), work_dir,
                                            lambda: time.process_time() - tree.overhead_cpu)
    t0 = time.perf_counter()
    generated = wl.prepare()
    prepare_s = time.perf_counter() - t0
    checks = []
    for _ in range(3):
        t0 = time.perf_counter()
        wl.check_inputs()
        checks.append(time.perf_counter() - t0)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(int(max(RUN_LIMIT_S - (time.perf_counter() - t_start), 120)))

    import ray

    ctx: dict = {}
    try:
        tree.start()
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False, logging_level="ERROR",
                 object_store_memory=OBJECT_STORE_BYTES)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        ray_init_s = time.perf_counter() - t0

        runner = Runner(wl, tree)
        warm = runner.one_pass()
        setup = {"import_s": import_s, "ray_init_s": ray_init_s, "input_check_s": statistics.median(checks),
                 "warmup_s": warm["wall_s"]}
        setup_s = sum(setup.values())

        if args.trace:
            untraced = runner.loop(args.seconds / 2)
            tracer = workloads.Tracer()
            traced = runner.loop(args.seconds / 2, tracer)
            kernels = wl.replay_kernels()
            metrics = per_layer(untraced, traced, kernels, names)
            trace_path = os.path.join(BENCH_DIR, ".work", f"trace-{args.workload}.json")
            with open(trace_path, "w") as f:
                json.dump(tracer.spans, f)
            ctx["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            metrics = end_to_end(runner.loop(args.seconds), setup_s)
        measured = runner.passes[1:]
        ctx.update({
            "workload": args.workload, "seed": args.seed, "trace": args.trace, "item": wl.item,
            "items": warm.get("items"), "inputs_generated": generated, "inputs_prepare_s": prepare_s,
            "setup": setup, "pass_wall_s": [r["wall_s"] for r in measured],
            "pass_cpu_s": [r["cpu"] for r in measured],
            "release_wait_s": [r["release_wait_s"] for r in runner.passes],
            "fail_ratio": sum(not r["ok"] for r in runner.passes) / len(runner.passes),
        })
    finally:
        signal.alarm(0)
        tree.stop()
        tree.sample()
        t0 = time.perf_counter()
        ray.shutdown()
        ctx["ray_processes_killed"] = tree.reap_survivors()
        ctx["shutdown_s"] = time.perf_counter() - t0
    ctx.update(host.finish())

    if set(names) != set(metrics):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}")
    failed = sum(not r["ok"] for r in runner.passes)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.passes),
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in names.items()},
    }
    sys.stdout.write(json.dumps({"context": ctx}) + "\n" + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
