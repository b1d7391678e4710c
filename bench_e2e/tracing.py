"""Span tracing for the traced benchmark run, recorded from outside the library.

Each layer is reached through a module attribute (``tlf.engine.eval_F``,
``numpy.fft.rfft2``, ...). ``install`` replaces those attributes with
wrappers that record a span per call: name, start, end, parent span and job
id. Spans stay in memory; ``write_csv`` saves them when the run ends and
``job_layers`` folds them into per-job self times and call counts.

A layer's self time is its span time minus the time of its child spans, so
the self times of every span in a job, the job's own root span included,
add up to the job's duration. The root span's self time is the named
remainder: job time spent outside every wrapped layer.
"""

import time
from collections import defaultdict

import numpy as np

from tlf import _kernels, engine, feasibility, fixtures, noise, problem, tasks

ROOT = "job"

# layer name -> module attributes through which callers reach it. Only the
# attributes the solvers actually look up at call time are wrapped; the
# tv-rof denoiser's nested HQS reaches solve_G through ``tlf.denoise``, which
# is left alone so that solve counts as denoiser time.
LAYERS = {
    "problem.pg_step": [(problem, "pg_step"), (engine, "pg_step")],
    "problem.eval_F": [(problem, "eval_F"), (engine, "eval_F")],
    "feasibility.solve_G": [(feasibility, "solve_G")],
    "feasibility.solve_G_mu": [(feasibility, "solve_G_mu")],
    "kernels.haar": [(_kernels, "haar2_forward"), (_kernels, "haar2_inverse")],
    "denoise.denoise": [(engine, "denoise"), (tasks, "denoise")],
    "tasks.derain_step": [(tasks, "derain_step")],
    "tasks.derain_objective": [(tasks, "derain_objective")],
    "noise.gaussian_field": [(noise, "gaussian_field"), (fixtures, "gaussian_field")],
    "tensor.fft": [(np.fft, "rfft2"), (np.fft, "irfft2")],
}
CG = "feasibility.cg"


class Tracer:
    """In-memory span log; spans are kept only while a job is open."""

    def __init__(self):
        self.job = None
        self.spans = []  # [job, name, parent index, start, end]
        self.counts = defaultdict(int)  # (job, counter) -> value
        self._stack = []

    def begin_job(self, job_id):
        self.job = job_id
        self._stack = [self._open(ROOT)]

    def end_job(self):
        self._close(self._stack.pop())
        self.job = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.job, name, parent, time.perf_counter(), None])
        return len(self.spans) - 1

    def _close(self, index):
        self.spans[index][4] = time.perf_counter()

    def wrap(self, name, fn, count_bytes=False):
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(index)
            if count_bytes:
                # computed from array sizes, not measured memory traffic
                self.counts[(self.job, name + ".bytes")] += args[0].nbytes + out.nbytes
            return out

        return traced

    def wrap_cg(self, fn):
        """Span around the CG solve; counts calls of the matvec it is given."""
        span = self.wrap(CG, fn)

        def traced(matvec, *args, **kwargs):
            if self.job is None:
                return fn(matvec, *args, **kwargs)
            job = self.job

            def counted(v):
                self.counts[(job, CG + ".matvecs")] += 1
                return matvec(v)

            return span(counted, *args, **kwargs)

        return traced

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,job,name,parent,start_s,end_s\n")
            for i, (job, name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{job},{name},{parent},{start!r},{end!r}\n")

    def job_layers(self, job_id):
        """Self seconds and call counts per layer for one job, plus counters.

        Returns (self_s, calls, counts, duration), where ``self_s[ROOT]`` is
        the remainder and ``duration`` the root span's length.
        """
        child_s = defaultdict(float)
        rows = [(i, s) for i, s in enumerate(self.spans) if s[0] == job_id]
        for _, (_, _, parent, start, end) in rows:
            if parent >= 0:
                child_s[parent] += end - start
        self_s, calls = defaultdict(float), defaultdict(int)
        duration = 0.0
        for i, (_, name, parent, start, end) in rows:
            self_s[name] += (end - start) - child_s[i]
            calls[name] += 1
            if name == ROOT:
                duration = end - start
        counts = {key[1]: v for key, v in self.counts.items() if key[0] == job_id}
        return dict(self_s), dict(calls), counts, duration


def install(tracer):
    """Replace every layer's module attributes with tracing wrappers."""
    for name, targets in LAYERS.items():
        for module, attr in targets:
            fn = getattr(module, attr)
            setattr(module, attr, tracer.wrap(name, fn, count_bytes=(name == "tensor.fft")))
    feasibility._cg_solve = tracer.wrap_cg(feasibility._cg_solve)
