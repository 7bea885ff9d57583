"""Native lowering: the wavefront sweep of one kernel as a cached C function.

:mod:`repro.backend.compiler` emits the PE DAG a second time in its C
dialect; :func:`translation_unit` splices that body into :data:`_DRIVER` —
the C twin of the NumPy loop in :func:`repro.backend.batch._sweep_bucket`
— once per working dtype, :func:`load` builds it with the system ``cc``
and opens it with ``ctypes``.  Nothing selects it: a kernel whose build
succeeds sweeps natively, any other runs the NumPy loop, bit-identically.

Objects are built ``-O3`` (on x86-64 for this CPU's vector ISA) and
content-addressed (SHA-256 of source, compiler path/size/mtime, flags and
the ``/proc/cpuinfo`` flags line) in a per-user ``0700`` directory,
written by temp file + ``os.replace`` and loaded only when file and
directory belong to this uid and nobody else can write them; a hit
spawns no process.  See ``docs/backends.md``, "Native lowering".
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import tempfile
from pathlib import Path
from string import Template
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.spec import KernelSpec, Objective, ParamSignature, StartRule
from repro.hdl_types import ApFixedType, ApIntType, Overflow, Rounding

#: No -ffast-math: IEEE semantics; contraction off so ``a * b + c`` rounds
#: twice, as NumPy does.  :func:`build_flags` adds ``-march=native`` on x86-64.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


class NativeUnavailable(RuntimeError):
    """No native sweep for this kernel on this machine (the reason why)."""


_PRELUDE = """\
#include <math.h>
#include <stdint.h>
/* np.maximum / np.minimum: a NaN in either operand propagates */
#define MAXIMUM(a, b) ((a) >= (b) || (a) != (a) ? (a) : (b))
#define MINIMUM(a, b) ((a) <= (b) || (a) != (a) ? (a) : (b))
#define UNROLL _Pragma("GCC unroll 8")  /* so up[k] & co. stay registers */
#define ABS(a) _Generic((a) + 0, double: fabs(a), default: ((a) < 0 ? -(a) : (a)))

/* The traceback FSM is data, so this text is the same in every unit: all B
   lanes of the skewed pointers from their start cells (row < 0: none).
   ``dim``: lanes, Q, R, pointers per state, stop at row 0, at column 0.
   ``moves`` is (B, Q + R + 5), last move first; ``done`` per lane: moves, end
   row, end column, did the end rule fire (else: the scalar walker's to say). */
enum { MATCH, DEL, INS, END, TRAP = 255 };
int walk(const int64_t *dim, void *const *arg)
{
    const int64_t B = dim[0], Q = dim[1], R = dim[2], P = dim[3];
    const int64_t S = Q + 2, D = Q + R + 1, M = Q + R + 5;
    const uint8_t *const ptrs = arg[0], *const move_of = arg[1], *const next_state = arg[2];
    const int64_t *const cell = arg[3];
    uint8_t *const moves = arg[4];
    int64_t *const done = arg[5];
    for (int64_t b = 0; b < B; b++) {
        int64_t i = cell[2 * b], j = cell[2 * b + 1], n = 0;
        int state = 0, move = TRAP;
        for (int64_t left = i + j + 5; i >= 0 && left; left--) {
            if (i == 0) {  /* row 0: only reference-consuming moves remain */
                move = dim[4] || j == 0 ? END : INS;
            } else if (j == 0) {
                move = dim[5] ? END : DEL;
            } else {
                const int64_t ptr = ptrs[(b * D + i + j) * S + i];
                move = ptr < P ? move_of[state * P + ptr] : TRAP;
                if (move != TRAP)
                    state = next_state[state * P + ptr];
            }
            if (move >= END)  /* the end rule fired, or a trap */
                break;
            moves[b * M + n++] = (uint8_t)move;
            i -= move != INS;
            j -= move != DEL;
        }
        done[4 * b] = n, done[4 * b + 1] = i, done[4 * b + 2] = j;
        done[4 * b + 3] = move == END;
    }
    return 0;
}
"""

#: The cell at row ``i`` of the lane's diagonal ``d``, once per unit (each
#: driver expands it with its own ``T``/``W``): neighbours, symbols (``F``
#: fields of type ``SYM``), the emitted PE statements, ``scores`` and ``ptr``.
_CELL = Template("""
#if F  /* struct symbols: one operand plane per field */
#define SYMBOLS SYM qry[F], ref[F]; UNROLL for (int f = 0; f < F; f++) \\
                    qry[f] = q[f * B * Q + i], ref[f] = r[f * B * R + i];
#else
#define SYMBOLS const SYM qry = q[i], ref = r[i];
#endif
#define CELL T up[L], left[L], diag[L]; UNROLL for (int k = 0; k < L; k++) \\
                    up[k] = prev[k][i - 1], left[k] = prev[k][i], diag[k] = prev2[k][i - 1]; \\
                SYMBOLS \\
$body \\
                const W scores[L] = {$scores}; \\
                const __auto_type ptr = $ptr;
""")

#: One instantiation per working dtype ``T`` (``W``: what a score widens to
#: before quantising); ``L`` layers.  ``dim``: lanes, Q, R, last diagonal,
#: band or -1, largest pointer to accept or -1 for unchecked, then rows per
#: layer.  ``arg``: the L skewed layers, then the operands unpacked below.
#: ``best``/``cell`` are each lane's running start cell,
#: ``systolic.traceback.BestCellTracker`` on its own live cells: ``START``
#: says which are eligible, ``BETTER`` is strict, and of two equal cells the
#: later has the smaller (i, j) iff a smaller row.  The row loop has no
#: branch, so it vectorises (``ivdep``: it stores no row it loads): retired
#: rows run the PE and are zeroed after it, a bad pointer only sets ``bad``.
_DRIVER = Template("""
#define T $T
#define W $W
static inline T quant_$sfx(W v) {$quant}
static inline void observe_$sfx(T score, int64_t i, int64_t j, T *best, int64_t *cell)
{
    if (cell[0] < 0 || BETTER(score, *best) || (!BETTER(*best, score) && i < cell[0])) {
        *best = score;
        cell[0] = i;
        cell[1] = j;
    }
}
int sweep_$sfx(const int64_t *dim, void *const *arg)
{
    const int64_t B = dim[0], Q = dim[1], R = dim[2], last = dim[3];
    const int64_t band = dim[4], limit = dim[5];
    const int64_t *rows = dim + 6, S = Q + 2, D = Q + R + 1;
    const T *const row_init = arg[L], *const col_init = row_init + D * L * B;
    uint8_t *const ptrs = arg[L + 1];
    const SYM *const qsym = arg[L + 2], *const rsym = arg[L + 3];
    const int64_t *const nq = arg[L + 4], *const nr = arg[L + 5];
    const T *const p = arg[L + 6];
    T *const best = arg[L + 7];
    int64_t *const cell = arg[L + 8];
    double *const out = arg[L + 9];  /* cells swept or: 1, the bad pointer, is it a double */
$params
    int64_t swept = 0;
    int has_bad = 0;
    for (int d = 2; d <= last && !has_bad; d++) {
        int64_t ilo = d - R > 1 ? d - R : 1, ihi = d - 1 < Q ? d - 1 : Q;
        if (band >= 0) {  /* |i - (d - i)| <= band */
            if ((d - band + 1) / 2 > ilo) ilo = (d - band + 1) / 2;
            if ((d + band) / 2 < ihi) ihi = (d + band) / 2;
        }
        for (int64_t b = 0; b < B; b++) {
            T *cur[L];  /* diagonal d; prev: d - 1; prev2: d - 2 */
            const T *prev[L], *prev2[L];
            for (int k = 0; k < L; k++) {
                T *const lane = (T *)arg[k] + b * rows[k] * S;
                cur[k] = lane + d % rows[k] * S;
                prev[k] = lane + (d - 1) % rows[k] * S;
                prev2[k] = lane + (d - 2) % rows[k] * S;
                cur[k][ilo - 1] = row_init[(d * L + k) * B + b];
                cur[k][ihi + 1] = col_init[(d * L + k) * B + b];
            }
            const SYM *q = qsym + b * Q - 1, *r = rsym + b * R + R - d;
            const int64_t vlo = d - nr[b], vhi = nq[b];
            uint8_t *const pr = ptrs ? ptrs + (b * D + d) * S : 0;
            int bad = 0;
#pragma GCC ivdep
            for (int64_t i = ilo; i <= ihi; i++) {
                CELL
                UNROLL
                for (int k = 0; k < L; k++)
                    cur[k][i] = quant_$sfx(scores[k]);
                bad |= (ptr < 0) | (ptr > limit);
                if (ptrs)  /* loop invariant: -O3 unswitches it */
                    pr[i] = (uint8_t)ptr;
            }
            bad &= ptrs && limit >= 0;  /* checked only where the NumPy loop checks */
            for (int64_t i = ilo; bad && i <= ihi; i++) {  /* the last one, lanes then rows */
                CELL
                if (ptr < 0 || ptr > limit)
                    out[1] = (double)ptr, out[2] = _Generic(ptr + 0, double: 1, default: 0);
            }
            has_bad |= bad;
            for (int k = 0; k < L; k++) {  /* retired rows: quantised zero */
                for (int64_t i = ilo; i < vlo && i <= ihi; i++)
                    cur[k][i] = quant_$sfx(0);
                for (int64_t i = vhi < ilo ? ilo : vhi + 1; i <= ihi; i++)
                    cur[k][i] = quant_$sfx(0);
            }
            /* reduction: the eligible ones of the lane's live cells lo..hi */
            const int64_t lo = ilo > vlo ? ilo : vlo, hi = ihi < vhi ? ihi : vhi;
            const int last_col = lo <= hi && lo == vlo, last_row = lo <= hi && hi == vhi;
#if START == GLOBAL_MAX
            for (int64_t i = lo; i <= hi; i++)
                observe_$sfx(cur[SCORE][i], i, d - i, best + b, cell + 2 * b);
#elif START == BOTTOM_RIGHT
            if (last_col && last_row && lo == hi)
                observe_$sfx(cur[SCORE][hi], hi, d - hi, best + b, cell + 2 * b);
#else
            if (last_col && START == LAST_ROW_OR_COL_MAX)
                observe_$sfx(cur[SCORE][lo], lo, d - lo, best + b, cell + 2 * b);
            if (last_row)
                observe_$sfx(cur[SCORE][hi], hi, d - hi, best + b, cell + 2 * b);
#endif
        }
        swept += ihi - ilo + 1;
    }
    out[0] = (double)swept;
    return has_bad;
}
#undef T
#undef W
""")


def _quantiser(score_type: Any, integer: bool) -> str:
    """C body of ``quantize_array`` for ``int64_t`` or ``double`` input."""
    raw = score_type if integer else ApIntType(
        score_type.width, score_type.signed, score_type.overflow
    )
    lo, hi, mask = raw.min_value, raw.max_value, (1 << raw.width) - 1
    wrap = f"(int64_t)(((uint64_t)n - (uint64_t){lo}LL) & {mask}ULL) + {lo}LL"
    if integer and raw.overflow is Overflow.SATURATE:
        return f" return v < {lo} ? {lo} : v > {hi} ? {hi} : v; "
    if integer:
        return f" const int64_t n = v; return {wrap}; "
    snap, grid = "trunc(v)", ""
    if isinstance(score_type, ApFixedType):  # a power of two: exact both ways
        floor = score_type.rounding is Rounding.TRUNCATE
        snap = f"{'floor' if floor else 'rint'}(v / {score_type.resolution!r})"
        grid = f" * {score_type.resolution!r}"
    if raw.overflow is Overflow.SATURATE:  # NaN fails both tests and stays
        fix = f"v = v < {lo}.0 ? {lo}.0 : v > {hi}.0 ? {hi}.0 : v;"
    else:  # astype(int64) of NaN or a value outside it is INT64_MIN on x86
        fix = (f"const int64_t n = v >= -0x1p63 && v < 0x1p63 ? (int64_t)v "
               f": INT64_MIN; v = (double)({wrap});")
    return (f"\n    v = {snap};\n"
            f"    if (!(v >= {lo}.0 && v <= {hi}.0)) {{ {fix} }}\n"
            f"    return v{grid};\n")


def translation_unit(
    spec: KernelSpec, signature: ParamSignature,
    body: Sequence[str], scores: Sequence[str], ptr: str,
) -> str:
    """The C source of one kernel: prelude plus one driver per dtype, around
    the emitted PE statements ``body`` and its ``scores``/``ptr`` outputs."""
    tables = [e[0] for e in signature if e[1] == "table"]
    scalars = [e[0] for e in signature if e[1] == "scalar"]
    params = [f"    const T *const t_{name} = arg[L + {10 + n}];"
              for n, name in enumerate(tables)]
    params += [f"    const T p_{name} = p[{n}];" for n, name in enumerate(scalars)]
    head = (f"#define L {spec.n_layers}\n#define F {len(spec.alphabet.fields)}\n"
            f"#define SYM {_C_TYPE[symbol_dtype(spec.alphabet)]}\n"
            f"#define SCORE {spec.score_layer}\n"
            + "".join(f"#define {rule.name} {n}\n" for n, rule in enumerate(StartRule))
            + f"#define START {spec.start_rule.name}\n#define BETTER(a, b) ((a) "
            f"{'>' if spec.objective is Objective.MAXIMIZE else '<'} (b))\n")
    units = [("f64", "double", "double", False)]
    if isinstance(spec.score_type, ApIntType):
        units.insert(0, ("i32", "int32_t", "int64_t", True))
    cell = _CELL.substitute(body=" \\\n".join(body), scores=", ".join(scores), ptr=ptr)
    return _PRELUDE + head + cell + "".join(
        _DRIVER.substitute(
            sfx=sfx, T=t, W=w, quant=_quantiser(spec.score_type, integer),
            params="\n".join(params),
        )
        for sfx, t, w, integer in units
    )


_C_TYPE = {np.uint8: "uint8_t", np.int64: "int64_t", np.float64: "double"}


def symbol_dtype(alphabet: Any) -> type:
    """What the driver reads a symbol as: a byte wherever the alphabet fits one."""
    return np.float64 if not alphabet.size else np.uint8 if alphabet.size <= 256 else np.int64


# -- build, cache, load ---------------------------------------------------


def find_compiler() -> Tuple[str, int, int]:
    """(path, size, mtime_ns) of the system ``cc``; no process spawned."""
    path = shutil.which("cc")
    if not path:
        raise NativeUnavailable("no C compiler (cc) on PATH")
    info = os.stat(path)
    return path, info.st_size, info.st_mtime_ns


def _private(path: Path) -> bool:
    """Owned by this uid and writable by nobody else."""
    info = os.stat(path)
    return info.st_uid == os.getuid() and not info.st_mode & (
        stat.S_IWGRP | stat.S_IWOTH
    )


def cache_dir() -> Path:
    """The per-user object cache, created ``0700`` on first use."""
    home = os.environ.get("XDG_CACHE_HOME") or (
        os.environ.get("HOME") and os.path.join(os.environ["HOME"], ".cache")
    )
    candidates = [Path(home, "repro-dp-hls", "native")] if home else []
    candidates.append(
        Path(tempfile.gettempdir(), f"repro-dp-hls-native-{os.getuid()}")
    )
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            if _private(path) and os.access(path, os.W_OK | os.X_OK):
                return path
        except OSError:
            continue
    raise NativeUnavailable(
        f"no private writable cache directory among {[str(c) for c in candidates]}"
    )


@functools.lru_cache(maxsize=None)
def cpu_signature() -> Optional[str]:
    """The ``flags`` line of ``/proc/cpuinfo``, read once per process."""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        return next((line.partition(":")[2].strip() for line in info
                     if line.startswith("flags")), None)
    return None


def build_flags() -> Tuple[Tuple[str, ...], str]:
    """The flags objects are built with, and what ``repro info`` says of them."""
    signature = cpu_signature()
    if signature is None or platform.machine() != "x86_64":
        return FLAGS, "portable -O3 (not an x86-64 CPU with a flags line in /proc/cpuinfo)"
    digest = hashlib.sha256(signature.encode()).hexdigest()[:12]
    return (*FLAGS, "-march=native"), f"for this CPU (cpuinfo flags {digest})"


def _build(compiler: str, flags: Sequence[str], source: str, target: Path) -> None:
    """Compile ``source`` beside ``target`` and rename it into place."""
    import subprocess

    fd, scratch = tempfile.mkstemp(suffix=".c", dir=target.parent)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        done = subprocess.run(
            [compiler, *flags, "-o", scratch + ".so", scratch, "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        if done.returncode:
            raise NativeUnavailable(f"{compiler} failed: {done.stderr.strip()[-500:]}")
        os.chmod(scratch + ".so", 0o700)  # whatever the umask: _private() must pass
        os.replace(scratch + ".so", target)  # racing builders: last one wins
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"build failed: {exc}") from exc
    finally:
        for leftover in (scratch, scratch + ".so"):
            with contextlib.suppress(OSError):
                os.unlink(leftover)


def load(source: str) -> Dict[Any, Any]:
    """Working dtype -> sweep entry point of ``source`` (and ``"walk"`` -> its
    traceback walker), built on a cache miss."""
    if ctypes.sizeof(ctypes.c_void_p) != 8:
        raise NativeUnavailable("the native driver assumes a 64-bit platform")
    compiler, flags = find_compiler(), build_flags()[0]
    key = (source, compiler, flags, cpu_signature())
    target = cache_dir() / f"{hashlib.sha256(repr(key).encode()).hexdigest()}.so"
    try:
        if not target.exists():
            _build(compiler[0], flags, source, target)
        if not (_private(target.parent) and _private(target)):
            raise NativeUnavailable(f"{target} is not private to this user")
        lib = ctypes.CDLL(str(target))
    except OSError as exc:
        raise NativeUnavailable(f"cannot load {target}: {exc}") from exc
    entries = {}
    for key, name in ((np.int32, "sweep_i32"), (np.float64, "sweep_f64"), ("walk", "walk")):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_void_p] * 2, ctypes.c_int
            entries[key] = fn
    return entries


def describe() -> List[str]:
    """What ``repro info`` prints: compiler, flags, cache — or why not."""
    try:
        flags, why = build_flags()
        return [f"native lowering: on ({find_compiler()[0]} {' '.join(flags)})",
                f"objects        : {why}", f"object cache   : {cache_dir()}"]
    except NativeUnavailable as exc:
        return [f"native lowering: off ({exc}); sweeps run the NumPy loop"]


# -- the call -------------------------------------------------------------

#: Set only by :func:`disabled`.
loop_forced = False


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Run the NumPy loop even where a native sweep exists (fuzzer, tests)."""
    global loop_forced
    before, loop_forced = loop_forced, True
    try:
        yield
    finally:
        loop_forced = before


def call(fn: Any, dims: Sequence[int], arrays: Sequence[Optional[np.ndarray]]) -> int:
    """Call one entry point on ``dim`` and on ``arg`` operands the caller keeps alive."""
    if not all(a is None or a.flags.c_contiguous for a in arrays):
        raise ValueError("native operands must be C-contiguous")
    dim = np.asarray(dims, np.int64)
    arg = np.asarray([0 if a is None else a.ctypes.data for a in arrays], np.uintp)
    return fn(dim.ctypes.data, arg.ctypes.data)
