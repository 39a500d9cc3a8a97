"""Native (compiled C) code generation: the paper's speed argument, literally.

The NumPy batch backend already amortizes the Python interpreter across
scenarios; this backend removes the interpreter from the per-step hot loop
altogether.  It emits C99 for a batch ``step_batch`` kernel — same constant
lifting, same ``(n_parameters, n_scenarios)`` parameter matrix and structural
compile-cache behaviour as :mod:`repro.core.codegen.numpy_backend` — compiles
it with the system C compiler, and loads the shared object through cffi's
ABI mode (``ffi.dlopen``), so no setuptools build step is involved.

Source emission is toolchain-free: :meth:`NativeGenerator.generate` works on
any machine (the artefact is just C text).  Only *instantiation* needs cffi
and a C compiler; when either is missing,

* :func:`repro.core.codegen.get_generator` ``("native")`` and
  :meth:`NativeArtifact.instantiate` raise
  :class:`~repro.errors.CodegenError` naming the missing dependency, and
* :func:`resolve_backend` lets CLIs downgrade ``"native"`` to ``"numpy"``
  with a single warning.

Because the native backend renders the templates the NumPy backend lifted,
the native and NumPy artefacts of one sweep share parameter/initial-state
arrays bit for bit; only the kernel differs (C arithmetic instead of ufuncs), so
results agree to floating-point rounding (ulps, far inside the 1e-9 gate of
the cross-engine matrix).
"""

from __future__ import annotations

import atexit
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...errors import CodeGenerationError, CodegenError
from ...obs.tracer import TRACER
from ..signalflow import TIME_VARIABLE, SignalFlowModel
from .base import CodeGenerator, ExpressionRenderer, GeneratedCode, class_name, mangle
from .cache import compile_cached, source_digest
from .numpy_backend import PARAM_PREFIX, BatchColumns, NumpyGenerator

#: Exported symbol of every generated shared object.  Each artefact lives in
#: its own ``dlopen`` handle (RTLD_LOCAL), so the name never collides.
NATIVE_SYMBOL = "repro_native_step_batch"

#: C prototype of the generated kernel (also the ``ffi.cdef`` text).
NATIVE_PROTOTYPE = (
    f"void {NATIVE_SYMBOL}(int n, const double *params, double *state, "
    "const double *inputs, double abstime, double *outputs);"
)


# ---------------------------------------------------------------------------
# Toolchain probing
# ---------------------------------------------------------------------------
_TOOLCHAIN_ERROR: "str | None | bool" = False  # False = not probed yet


def _find_cc() -> "str | None":
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def toolchain_error(refresh: bool = False) -> "str | None":
    """``None`` when the native tier can compile here, else the reason it can't."""
    global _TOOLCHAIN_ERROR
    if _TOOLCHAIN_ERROR is False or refresh:
        try:
            import cffi  # noqa: F401
        except ImportError:
            _TOOLCHAIN_ERROR = "the 'cffi' package is not installed"
        else:
            if _find_cc() is None:
                _TOOLCHAIN_ERROR = (
                    "no C compiler found on PATH (tried $CC, cc, gcc, clang)"
                )
            else:
                _TOOLCHAIN_ERROR = None
    return _TOOLCHAIN_ERROR


def ensure_toolchain() -> None:
    """Raise :class:`CodegenError` naming the missing dependency, if any."""
    reason = toolchain_error()
    if reason is not None:
        raise CodegenError(
            f"the 'native' codegen backend is unavailable: {reason}; "
            "use the 'numpy' backend or install the missing dependency"
        )


_WARNED_FALLBACK = False


def resolve_backend(requested: str, fallback: str = "numpy") -> str:
    """Degrade ``"native"`` to ``fallback`` when the toolchain is missing.

    Used by the sweep/fuzz CLIs: any other backend name passes through
    untouched, and the downgrade warns exactly once per process.
    """
    global _WARNED_FALLBACK
    if requested != "native":
        return requested
    reason = toolchain_error()
    if reason is None:
        return "native"
    if not _WARNED_FALLBACK:
        _WARNED_FALLBACK = True
        import warnings

        warnings.warn(
            f"native codegen backend unavailable ({reason}); "
            f"falling back to the {fallback!r} backend",
            RuntimeWarning,
            stacklevel=2,
        )
    return fallback


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------
@dataclass
class NativeArtifact:
    """A generated C batch kernel plus the per-scenario data it executes with.

    ``parameters``/``initial_state`` are bit-identical to the NumPy backend's
    for the same models (same lifting pass).
    """

    code: GeneratedCode
    parameters: np.ndarray
    initial_state: np.ndarray
    n_scenarios: int

    def instantiate(self):
        """Compile (through the shared cache) and build a live batch instance.

        Raises :class:`CodegenError` when the toolchain is missing.
        """
        cls = compile_native(self.code)
        return cls(self.parameters, self.initial_state, self.n_scenarios)


class NativeGenerator(CodeGenerator):
    """Generate a compiled-C batch kernel advancing many scenarios per step."""

    name = "native"
    language = "C"

    def ensure_available(self) -> None:
        ensure_toolchain()

    def generate(self, model: SignalFlowModel) -> GeneratedCode:
        """Single-model entry point of the registry: a batch of one."""
        return self.generate_batch([model]).code

    def generate_batch(
        self, models: "Sequence[SignalFlowModel] | BatchColumns"
    ) -> NativeArtifact:
        """Emit one C ``step_batch`` kernel covering every model in ``models``,
        or every scenario of a :class:`~repro.core.codegen.numpy_backend.BatchColumns`."""
        # The NumPy artefact's lifted templates and parameter matrix are
        # reused verbatim, so both backends run on the same columns.
        numpy_artifact = NumpyGenerator().generate_batch(models)
        first = numpy_artifact.code.model
        source, entity = self._render_source(first, numpy_artifact.templates)
        code = GeneratedCode(
            language=self.language,
            model_name=first.name,
            entity_name=entity,
            source=source,
            model=first,
            metadata={
                "backend": self.name,
                "symbol": NATIVE_SYMBOL,
                "n_parameters": str(len(numpy_artifact.parameters)),
                "n_scenarios": str(numpy_artifact.n_scenarios),
            },
        )
        return NativeArtifact(
            code=code,
            parameters=numpy_artifact.parameters,
            initial_state=numpy_artifact.initial_state,
            n_scenarios=numpy_artifact.n_scenarios,
        )

    # -- rendering --------------------------------------------------------------------
    def _render_source(self, first, templates):
        entity = class_name(first.name, "Native")
        states = list(first.state_variables)
        state_index = {name: i for i, name in enumerate(states)}
        inputs = list(first.inputs)
        input_index = {name: i for i, name in enumerate(inputs)}
        input_names = set(inputs)
        targets = {assignment.target for assignment in first.assignments}

        def variable(name: str) -> str:
            if name.startswith(PARAM_PREFIX):
                return f"_p{int(name[len(PARAM_PREFIX):])}"
            if name == TIME_VARIABLE:
                return "abstime"
            if name in input_names or name in targets:
                return f"_v_{mangle(name)}"
            raise CodeGenerationError(
                f"expression references {name!r}, which is neither an input "
                "nor a computed quantity"
            )

        renderer = ExpressionRenderer(
            "c",
            variable_formatter=variable,
            previous_formatter=lambda name: f"_s{state_index[name]}",
        )

        used_parameters = sorted(
            {
                int(name[len(PARAM_PREFIX):])
                for template in templates
                for name in template.variables()
                if name.startswith(PARAM_PREFIX)
            }
        )

        lines: list[str] = []
        lines.append("/* Generated by repro.core.codegen.native_backend — do not edit. */")
        lines.append(f"/* model: {first.name} ({first.source}) */")
        lines.append("#include <math.h>")
        lines.append("")
        lines.append(f"void {NATIVE_SYMBOL}(int n, const double *params, double *state,")
        lines.append("                             const double *inputs, double abstime,")
        lines.append("                             double *outputs)")
        lines.append("{")
        lines.append("    int i;")
        lines.append("    (void)params; (void)state; (void)inputs; (void)abstime;")
        lines.append("    for (i = 0; i < n; ++i) {")
        for index in used_parameters:
            lines.append(f"        const double _p{index} = params[{index} * n + i];")
        for name in inputs:
            lines.append(
                f"        const double _v_{mangle(name)} = "
                f"inputs[{input_index[name]} * n + i];"
            )
        for name in states:
            lines.append(
                f"        const double _s{state_index[name]} = "
                f"state[{state_index[name]} * n + i];"
            )
        declared: set[str] = set()
        for assignment, template in zip(first.assignments, templates):
            target = f"_v_{mangle(assignment.target)}"
            keyword = "" if target in declared else "double "
            declared.add(target)
            lines.append(f"        {keyword}{target} = {renderer.render(template)};")
        for name in states:
            lines.append(
                f"        state[{state_index[name]} * n + i] = _v_{mangle(name)};"
            )
        for position, name in enumerate(first.outputs):
            lines.append(f"        outputs[{position} * n + i] = _v_{mangle(name)};")
        lines.append("    }")
        lines.append("}")
        lines.append("")
        return "\n".join(lines), entity


# ---------------------------------------------------------------------------
# Compilation (cc -shared + cffi dlopen)
# ---------------------------------------------------------------------------
_BUILD_DIR: "str | None" = None


def _build_dir() -> str:
    global _BUILD_DIR
    if _BUILD_DIR is None:
        _BUILD_DIR = tempfile.mkdtemp(prefix="repro-native-")
        atexit.register(shutil.rmtree, _BUILD_DIR, True)
    return _BUILD_DIR


class _NativeBatchBase:
    """Python face of a compiled kernel; mirrors the NumPy batch contract."""

    INPUTS: tuple = ()
    OUTPUTS: tuple = ()
    STATES: tuple = ()
    TIMESTEP: float = 0.0
    N_PARAMETERS: int = 0
    _FFI = None
    _KERNEL = None

    def __init__(self, parameters, initial_state, n_scenarios):
        self.n_scenarios = int(n_scenarios)
        n = self.n_scenarios
        self._parameters = np.ascontiguousarray(
            np.asarray(parameters, dtype=float).reshape(self.N_PARAMETERS, n)
        )
        self._initial = np.asarray(initial_state, dtype=float).reshape(
            len(self.STATES), n
        )
        self._state = np.zeros((len(self.STATES), n), dtype=float)
        self._inputs = np.zeros((len(self.INPUTS), n), dtype=float)
        self._outputs = np.zeros((len(self.OUTPUTS), n), dtype=float)
        ffi = self._FFI
        self._c_params = ffi.cast("double *", self._parameters.ctypes.data)
        self._c_state = ffi.cast("double *", self._state.ctypes.data)
        self._c_inputs = ffi.cast("double *", self._inputs.ctypes.data)
        self._c_outputs = ffi.cast("double *", self._outputs.ctypes.data)
        self.reset()

    def reset(self):
        """Restore the initial state X0 for every scenario."""
        if len(self.STATES):
            self._state[:] = self._initial

    def _resolve_arguments(self, values, abstime):
        expected = len(self.INPUTS)
        # Callers (matching the generated Python/NumPy classes) may pass the
        # absolute time as a trailing positional argument.
        if len(values) == expected + 1:
            abstime = values[-1]
            values = values[:expected]
        elif len(values) != expected:
            raise TypeError(
                f"step_batch() expects {expected} input(s) {self.INPUTS!r}, "
                f"got {len(values)}"
            )
        return values, float(abstime)

    def step_batch(self, *values, abstime=0.0):
        """Advance every scenario by one timestep (inputs broadcast to (n,))."""
        values, abstime = self._resolve_arguments(values, abstime)
        buffer = self._inputs
        for index, value in enumerate(values):
            buffer[index] = value
        self._KERNEL(
            self.n_scenarios,
            self._c_params,
            self._c_state,
            self._c_inputs,
            abstime,
            self._c_outputs,
        )
        outputs = self._outputs
        if len(self.OUTPUTS) == 1:
            return outputs[0].copy()
        return tuple(row.copy() for row in outputs)

    def step(self, *values, abstime=0.0):
        """Scalar convenience for single-scenario instances."""
        if self.n_scenarios != 1:
            raise TypeError("step() is only available on single-scenario instances")
        result = self.step_batch(*values, abstime=abstime)
        if len(self.OUTPUTS) == 1:
            return float(result[0])
        return tuple(float(row[0]) for row in result)


def _cc_compile(code: GeneratedCode) -> type:
    """Compile C source to a shared object, dlopen it, and wrap it in a class."""
    import cffi

    start = time.perf_counter()
    compiler = _find_cc()
    if compiler is None:  # pragma: no cover - guarded by ensure_toolchain
        raise CodegenError("no C compiler found on PATH")
    digest = source_digest(code.source)[:16]
    directory = _build_dir()
    c_path = os.path.join(directory, f"{digest}.c")
    so_path = os.path.join(directory, f"{digest}.so")
    with open(c_path, "w", encoding="utf-8") as handle:
        handle.write(code.source)
    command = [compiler, "-O2", "-fPIC", "-shared", "-o", so_path, c_path, "-lm"]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise CodegenError(
            f"C compilation failed ({' '.join(command)}):\n{result.stderr.strip()}"
        )
    ffi = cffi.FFI()
    ffi.cdef(NATIVE_PROTOTYPE)
    library = ffi.dlopen(so_path)
    kernel = getattr(library, NATIVE_SYMBOL)
    model = code.model
    namespace = {
        "INPUTS": tuple(model.inputs),
        "OUTPUTS": tuple(model.outputs),
        "STATES": tuple(model.state_variables),
        "TIMESTEP": float(model.timestep),
        "N_PARAMETERS": int(code.metadata.get("n_parameters", "0")),
        "_FFI": ffi,
        "_KERNEL": kernel,
        "_LIBRARY": library,  # keep the dlopen handle alive with the class
        "__doc__": f"Compiled native batch kernel for model {model.name!r}.",
    }
    cls = type(code.entity_name, (_NativeBatchBase,), namespace)
    if TRACER.enabled:
        TRACER.complete(
            "codegen.native.compile",
            start,
            time.perf_counter() - start,
            "codegen",
            entity=code.entity_name,
            compiler=compiler,
        )
    TRACER.add("codegen.native.compiles")
    return cls


def compile_native(code: GeneratedCode) -> type:
    """Compile a native artefact into its wrapper class, using the shared cache."""
    if code.language != "C":
        raise CodeGenerationError(
            f"can only compile C artefacts, not {code.language!r}"
        )
    ensure_toolchain()
    return compile_cached(code, _cc_compile)


def native_batch_model(models: Sequence[SignalFlowModel]):
    """Convenience: generate, compile and instantiate a native batch in one call."""
    return NativeGenerator().generate_batch(models).instantiate()
