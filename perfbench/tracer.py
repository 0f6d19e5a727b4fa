"""In-memory tracer for the benchmark's traced run.

``Tracer.install`` wraps each public function of the ftjsim layers by
re-binding every module attribute that refers to it, in every ftjsim module
that imported it, and every entry of ``cli._HANDLERS``. Ordinary functions
record one span each: op id, name, parent, start, end and self time. Leaf
kernels, called thousands of times per op, are aggregated as call counts and
time instead. Self time is a call's duration minus the time of the wrapped
calls it made. Everything stays in memory until ``write_spans``.

A wrapped call made directly by a leaf of the same layer (``current_total``
calling ``current_pf``) is the leaf's own work and is not recorded again.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("conduction", "device", "crossbar", "inference", "extraction",
          "config", "cli")

KERNELS = frozenset(f"conduction.{name}" for name in (
    "current_total", "differential_conductance", "current_ohmic",
    "current_pf", "current_tunneling"))
LEAVES = KERNELS | {"conduction.state_multiplier", "device.apply_pulse",
                    "device.read_state", "device.sample_device",
                    "device.write_energy"}

# Functions timed as one group: only the outermost call of a group counts.
GROUPS = {"config.load_config": "config.parse",
          "config.parse_config": "config.parse"}


class _Frame:
    __slots__ = ("name", "layer", "leaf", "child_s", "kernels_at_entry")

    def __init__(self, name, layer, leaf, kernels_at_entry):
        self.name = name
        self.layer = layer
        self.leaf = leaf
        self.child_s = 0.0
        self.kernels_at_entry = kernels_at_entry


def _count_kernel(tracer, args, result, frame):
    tracer.kernel_calls += 1
    tracer.counts["conduction.kernel_points"] += getattr(args[0], "size", 1)


def _count_pulse(tracer, args, result, frame):
    tracer.counts["device.pulse_moved"] += result.w != args[0].w


def _count_solve(tracer, args, result, frame):
    tracer.counts["crossbar.newton_iters"] += result.iterations
    tracer.counts["crossbar.solve_kernel_calls"] += (
        tracer.kernel_calls - frame.kernels_at_entry)


def _count_program(tracer, args, result, frame):
    report = result[1]
    tracer.counts["inference.program_pulses"] += report.pulses_total
    tracer.counts["inference.program_failed_cells"] += report.n_failed
    tracer.counts["inference.program_cells"] += report.pulse_counts.size


POST = {name: _count_kernel for name in KERNELS}
POST.update({"device.apply_pulse": _count_pulse,
             "crossbar.solve_network": _count_solve,
             "inference.program_write_verify": _count_program})


class Tracer:
    def __init__(self):
        self.op_id = "setup"
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.kernel_calls = 0
        self.calls = defaultdict(int)       # per function
        self.time_s = defaultdict(float)    # per function or group, outermost calls
        self.self_s = defaultdict(float)    # per layer
        self.entries = defaultdict(int)     # per layer, calls from another layer
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._restore: list[tuple] = []
        self.commands: list[str] = []

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        clock = time.perf_counter
        leaf = name in LEAVES
        group = GROUPS.get(name, name)
        post = POST.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent.leaf and parent.layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(name, layer, leaf, tracer.kernel_calls)
            stack.append(frame)
            depth = tracer._depth
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                duration = end - start
                self_s = duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                tracer.self_s[layer] += self_s
                tracer.calls[name] += 1
                if depth[group] == 0:
                    tracer.time_s[group] += duration
                if parent is None or parent.layer != layer:
                    tracer.entries[layer] += 1
                if not leaf:
                    tracer.spans.append((tracer.op_id, name,
                                         parent.name if parent else None,
                                         start, end, self_s))
            if post is not None:
                post(tracer, args, result, frame)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer of ``package``."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        prefix = package.__name__
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            if layer == "cli":
                public = ["main"]
            else:
                public = [n for n in module.__all__
                          if inspect.isfunction(getattr(module, n))]
            for attr in public:
                fn = getattr(module, attr)
                wrappers[fn] = self._wrap(f"{layer}.{attr}", layer, fn)
        cli = sys.modules[f"{prefix}.cli"]
        self.commands = list(cli._HANDLERS)
        for command, fn in cli._HANDLERS.items():
            wrappers[fn] = self._wrap(f"cli.{command}", "cli", fn)

        modules = [m for key, m in sys.modules.items()
                   if key == prefix or key.startswith(prefix + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for command, fn in list(cli._HANDLERS.items()):
            self._restore.append((cli._HANDLERS, command, fn))
            cli._HANDLERS[command] = wrappers[fn]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def per_layer(self) -> dict:
        """Per-layer metric values accumulated so far, keyed by metric name."""
        t, calls, n = self.time_s, self.calls, self.counts
        solves = calls["crossbar.solve_network"]
        pulses = calls["device.apply_pulse"]
        cells = n["inference.program_cells"]
        metrics = {
            "conduction.kernel_calls": self.kernel_calls,
            "conduction.kernel_points": n["conduction.kernel_points"],
            "conduction.kernel_s": sum(t[name] for name in KERNELS),
            "conduction.calibrate_calls": calls["conduction.calibrate"],
            "conduction.calibrate_s": t["conduction.calibrate"],
            "device.pulse_calls": pulses,
            "device.pulse_moved": n["device.pulse_moved"],
            "device.pulse_yield": n["device.pulse_moved"] / pulses if pulses else 0.0,
            "device.read_calls": calls["device.read_state"],
            "device.self_s": self.self_s["device"],
            "device.sample_calls": calls["device.sample_device"],
            "device.sample_s": t["device.sample_device"],
            "crossbar.solve_calls": solves,
            "crossbar.newton_iters": n["crossbar.newton_iters"],
            "crossbar.kernel_calls_per_solve":
                n["crossbar.solve_kernel_calls"] / solves if solves else 0.0,
            "crossbar.solve_s": t["crossbar.solve_network"],
            "crossbar.self_s": self.self_s["crossbar"],
            "crossbar.build_s": t["crossbar.build_crossbar"],
            "crossbar.write_s": t["crossbar.write_v_half"],
            "crossbar.mvm_read_calls": calls["crossbar.mvm_read"],
            "inference.program_s": t["inference.program_write_verify"],
            "inference.program_pulses": n["inference.program_pulses"],
            "inference.program_failed_cells": n["inference.program_failed_cells"],
            "inference.verify_yield":
                1.0 - n["inference.program_failed_cells"] / cells if cells else 0.0,
            "inference.mvm_charge_calls": calls["inference.mvm_charge"],
            "inference.mvm_charge_s": t["inference.mvm_charge"],
            "inference.self_s": self.self_s["inference"],
            "extraction.calls": self.entries["extraction"],
            "extraction.self_s": self.self_s["extraction"],
            "config.parse_s": t["config.parse"],
            "config.emit_s": t["config.emit_config"],
            "config.build_model_s": t["config.build_model"],
            "cli.self_s": self.self_s["cli"],
        }
        for command in self.commands:
            metrics[f"cli.{command}_s"] = t[f"cli.{command}"]
        return metrics

    def write_spans(self, path, header: dict) -> None:
        """Write the header and one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for op_id, name, parent, start, end, self_s in self.spans:
                fh.write(json.dumps({"op": op_id, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "self_s": self_s}) + "\n")
