"""Per-layer spans timed from outside the program.

``Tracer.install`` replaces public functions of ``skipdiff`` with timing
wrappers in every module that looks them up (each ``from .x import f``
binding, and class attributes for methods), and wraps the backward closure
of every node the traced autodiff primitives record. Nothing under ``src/``
changes; the wrappers live only in the traced process.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans plus the time outside every span add up to the
traced wall time.
"""

from __future__ import annotations

import gc
import sys
import time

# (module, attribute) of each function span; a dotted attribute is a method.
SPANS = (
    ("training", "scheduler_round"),
    ("training", "exploration_epoch"),
    ("exploiter", "diffusion_loss"),
    ("exploiter", "generate_batch"),
    ("exploiter", "sample_step"),
    ("exploiter", "mbr_select"),
    ("autodiff", "backward"),
    ("optim", "AdaptiveSGD.step"),
    ("scheduler", "sample_instructions_batch"),
    ("scheduler", "InstructionBatch.score_gradients"),
    ("nn", "transformer_block"),
    ("nn", "lstm_step"),
    ("metrics", "bleu"),
    ("metrics", "corpus_bleu"),
    ("metrics", "self_bleu"),
    ("rng", "RngStream.normal"),
    ("schedule", "apply_skipping"),
    ("data", "encode_batch"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
)

# The policy rollout runs in three roles, told apart by its arguments.
ROLLOUT_ROLES = ("train", "probe", "greedy")

PRIMITIVES = ("matmul", "add", "mul", "layer_norm_op", "gelu", "softmax",
              "transpose", "reshape", "slice_", "gather_rows", "where_mask",
              "sigmoid", "tanh")


def span_names():
    names = []
    for module, attr in SPANS:
        if attr == "sample_instructions_batch":
            names += [f"{module}.{attr}.{role}" for role in ROLLOUT_ROLES]
        else:
            names.append(f"{module}.{attr}")
    return names


def metric_names():
    """Every per-layer metric, with its unit, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.self_s", "s")]
    for prim in PRIMITIVES:
        out += [(f"autodiff.{prim}.calls", "count"), (f"autodiff.{prim}.fwd_s", "s"),
                (f"autodiff.{prim}.bwd_s", "s")]
    out += [("autodiff.tape_nodes", "count"), ("rng.draws", "count"),
            ("gc.gen2_collections", "count"), ("trace.wall_s", "s"),
            ("trace.untraced_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.stats = {}        # span name -> [calls, total_s, self_s]
        self.stack = []        # per open span: [name, time covered by children]
        self.tape_nodes = 0
        self.rng_draws = 0
        self.prim_calls = {p: 0 for p in PRIMITIVES}

    # -- spans ------------------------------------------------------------
    def _enter(self, name):
        self.stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, start):
        elapsed = time.perf_counter() - start
        name, children = self.stack.pop()
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - children
        if self.stack:
            self.stack[-1][1] += elapsed

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(start)
        return wrapper

    def _rollout(self, fn):
        prefix = "scheduler.sample_instructions_batch."

        def wrapper(params, srcs, vocab, cfg, rng, mode="stochastic", record=None):
            if mode == "greedy":
                role = "greedy"
            elif record is None or record:
                role = "probe"
            else:
                role = "train"
            start = self._enter(prefix + role)
            try:
                return fn(params, srcs, vocab, cfg, rng, mode, record)
            finally:
                self._exit(start)
        return wrapper

    def _backward(self, fn):
        timed = self.timed("autodiff.backward", fn)

        def wrapper(tape, loss):
            if self.stack and self.stack[-1][0] == "exploiter.diffusion_loss":
                self.tape_nodes += len(tape.nodes)
            return timed(tape, loss)
        return wrapper

    def _primitive(self, prim, fn):
        fwd_name = f"autodiff.{prim}.fwd"
        bwd_name = f"autodiff.{prim}.bwd"

        def wrapper(*args, **kwargs):
            self.prim_calls[prim] += 1
            start = self._enter(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(start)
            if out._backward is not None:
                out._backward = self.timed(bwd_name, out._backward)
            return out
        return wrapper

    def _counting_draws(self, fn):
        def wrapper(stream, *args, **kwargs):
            before = stream.position
            try:
                return fn(stream, *args, **kwargs)
            finally:
                self.rng_draws += stream.position - before
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every span target in the loaded ``skipdiff`` modules."""
        import skipdiff.cli  # noqa: F401  (loads every module of the package)
        modules = [m for name, m in sys.modules.items()
                   if name == "skipdiff" or name.startswith("skipdiff.")]

        def rebind(original, replacement):
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)

        for module_name, attr in SPANS:
            module = sys.modules[f"skipdiff.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, method)
                if (module_name, attr) == ("rng", "RngStream.normal"):
                    original = self._counting_draws(original)
                setattr(cls, method, self.timed(name, original))
                continue
            original = getattr(module, attr)
            if attr == "sample_instructions_batch":
                rebind(original, self._rollout(original))
            elif attr == "backward":
                rebind(original, self._backward(original))
            else:
                rebind(original, self.timed(name, original))
        rng_cls = sys.modules["skipdiff.rng"].RngStream
        rng_cls.uniform = self._counting_draws(rng_cls.uniform)
        autodiff = sys.modules["skipdiff.autodiff"]
        for prim in PRIMITIVES:
            original = getattr(autodiff, prim)
            rebind(original, self._primitive(prim, original))

    # -- report -----------------------------------------------------------
    def report(self, wall_s, rounds, gen2_collections):
        """Per-layer metrics per round of the workload."""
        per = 1.0 / rounds
        values = {}
        self_total = 0.0
        for name in span_names():
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            values[f"{name}.calls"] = calls * per
            values[f"{name}.total_s"] = total * per
            values[f"{name}.self_s"] = self_s * per
            self_total += self_s
        for prim in PRIMITIVES:
            fwd = self.stats.get(f"autodiff.{prim}.fwd", (0, 0.0, 0.0))
            bwd = self.stats.get(f"autodiff.{prim}.bwd", (0, 0.0, 0.0))
            values[f"autodiff.{prim}.calls"] = self.prim_calls[prim] * per
            values[f"autodiff.{prim}.fwd_s"] = fwd[1] * per
            values[f"autodiff.{prim}.bwd_s"] = bwd[1] * per
            self_total += fwd[2] + bwd[2]
        loss_calls = self.stats.get("exploiter.diffusion_loss", (0,))[0]
        values["autodiff.tape_nodes"] = self.tape_nodes / loss_calls if loss_calls else 0
        values["rng.draws"] = self.rng_draws * per
        values["gc.gen2_collections"] = gen2_collections * per
        values["trace.wall_s"] = wall_s * per
        values["trace.untraced_s"] = (wall_s - self_total) * per
        return values


def gen2_collections():
    return gc.get_stats()[2]["collections"]
