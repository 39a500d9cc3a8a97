"""Code generators for signal-flow models (paper Section IV.D).

Available backends, selected by name through :func:`get_generator`:

============  ====================  ==========================================
name          target language        role in the paper's evaluation
============  ====================  ==========================================
``cpp``        plain C++             fastest integration target (Table I-III)
``python``     executable Python     the runnable equivalent of the C++ target
``numpy``      vectorized NumPy      batch execution of whole sweeps at once
``systemc_de`` SystemC (DE)          discrete-event integration, no AMS layer
``systemc_tdf`` SystemC-AMS/TDF      signal-flow model inside the AMS framework
``native``     compiled C (cffi)     native-speed batch execution of sweeps
============  ====================  ==========================================
"""

from ...errors import CodeGenerationError
from .base import CodeGenerator, ExpressionRenderer, GeneratedCode, class_name, mangle
from .cache import cache_info, clear_cache, compile_cached, source_digest
from .cpp import CppGenerator
from .native_backend import (
    NativeArtifact,
    NativeGenerator,
    compile_native,
    native_batch_model,
    resolve_backend,
    toolchain_error,
)
from .numpy_backend import (
    BatchArtifact,
    BatchColumns,
    NumpyGenerator,
    compile_batch,
    structure_signature,
)
from .python_backend import (
    PythonGenerator,
    compile_generated,
    compile_model,
    compile_model_cached,
)
from .systemc import SystemCDeGenerator, SystemCTdfGenerator

#: Registry of available backends.
GENERATORS: dict[str, type[CodeGenerator]] = {
    CppGenerator.name: CppGenerator,
    PythonGenerator.name: PythonGenerator,
    NumpyGenerator.name: NumpyGenerator,
    SystemCDeGenerator.name: SystemCDeGenerator,
    SystemCTdfGenerator.name: SystemCTdfGenerator,
    NativeGenerator.name: NativeGenerator,
}


def get_generator(name: str) -> CodeGenerator:
    """Instantiate the backend called ``name``.

    Raises
    ------
    CodeGenerationError
        When no backend with that name exists.
    CodegenError
        When the backend exists but cannot execute on this machine (for
        ``"native"``: no cffi or no C compiler), naming the missing
        dependency.
    """
    try:
        generator = GENERATORS[name]()
    except KeyError as exc:
        raise CodeGenerationError(
            f"unknown code generator {name!r}; available: {sorted(GENERATORS)}"
        ) from exc
    generator.ensure_available()
    return generator


def generate_all(model) -> dict[str, GeneratedCode]:
    """Run every backend on ``model`` and return the artefacts keyed by backend name.

    Source emission is toolchain-free, so this bypasses the availability
    check that :func:`get_generator` performs (the ``native`` backend emits
    its C source even on machines without cffi or a C compiler).
    """
    return {name: cls().generate(model) for name, cls in GENERATORS.items()}


__all__ = [
    "BatchArtifact",
    "BatchColumns",
    "CodeGenerator",
    "CppGenerator",
    "ExpressionRenderer",
    "GENERATORS",
    "GeneratedCode",
    "NativeArtifact",
    "NativeGenerator",
    "NumpyGenerator",
    "PythonGenerator",
    "SystemCDeGenerator",
    "SystemCTdfGenerator",
    "compile_native",
    "native_batch_model",
    "resolve_backend",
    "toolchain_error",
    "cache_info",
    "class_name",
    "clear_cache",
    "compile_batch",
    "compile_cached",
    "compile_generated",
    "compile_model",
    "compile_model_cached",
    "generate_all",
    "get_generator",
    "mangle",
    "source_digest",
    "structure_signature",
]
