"""Every FFT in the package runs through ``donn.propagation``.

Propagation, its adjoint, bandlimiting and the HIBL readout share one
FFT sandwich (``propagation.spectral_multiply``). This scan keeps a
second one from appearing: only ``propagation.py`` may import
``scipy.fft``, and no module may call a ``numpy.fft`` transform
(``fftfreq``, which builds frequency coordinates, is allowed).
"""

import ast
from pathlib import Path

import donn

SOURCES = sorted(Path(donn.__file__).parent.glob("*.py"))
NUMPY_FFT_ALLOWED = {"fftfreq"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _fft_uses(tree):
    """(scipy.fft imports, numpy.fft names used other than the allowed ones)."""
    scipy_fft, numpy_fft = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.fft"):
                    scipy_fft.append(alias.name)
                if alias.name.startswith("numpy.fft"):
                    numpy_fft.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            module = node.module or ""
            if module.startswith("scipy.fft") or (module == "scipy" and "fft" in names):
                scipy_fft.append(module)
            if module.startswith("numpy.fft"):
                numpy_fft += sorted(names - NUMPY_FFT_ALLOWED)
            elif module == "numpy" and "fft" in names:
                numpy_fft.append("numpy.fft")
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name and name.split(".")[:2] in (["np", "fft"], ["numpy", "fft"]):
                if name.count(".") == 2 and node.attr not in NUMPY_FFT_ALLOWED:
                    numpy_fft.append(name)
    return scipy_fft, numpy_fft


def test_only_propagation_imports_scipy_fft():
    importers = [p.name for p in SOURCES if _fft_uses(ast.parse(p.read_text()))[0]]
    assert importers == ["propagation.py"]


def test_no_numpy_fft_transforms():
    for path in SOURCES:
        assert _fft_uses(ast.parse(path.read_text()))[1] == [], path.name


def test_scan_catches_a_second_sandwich():
    scipy_fft, numpy_fft = _fft_uses(ast.parse(
        "import scipy.fft as f\n"
        "from scipy import fft\n"
        "import numpy as np\n"
        "x = np.fft.ifft2(np.fft.fft2(np.zeros((2, 2))))\n"
        "k = np.fft.fftfreq(4)\n"
    ))
    assert scipy_fft == ["scipy.fft", "scipy"]
    assert sorted(numpy_fft) == ["np.fft.fft2", "np.fft.ifft2"]
