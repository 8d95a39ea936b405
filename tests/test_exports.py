"""The package's lazy public surface (PEP 562): ``import atomdecoh`` loads
no submodule, each public name loads only the modules it needs, and the
export table in ``__init__.py`` names where each public name is defined."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import atomdecoh
from test_private_names import _defined
from test_xsection_engine import _fresh

SRC = Path(atomdecoh.__file__).parent

#: prints the modules of the package, numpy and dataclasses that the code
#: before it loaded; a process starts with ``before = set(sys.modules)``
_NEW_MODULES = (
    "print(sorted(m for m in set(sys.modules) - before\n"
    "             if m.split('.')[0] in ('atomdecoh', 'numpy', 'dataclasses')))"
)


def _module_assignments(path):
    """A module's syntax tree, and the values of its top-level assignments
    by target name."""
    tree = ast.parse(path.read_text())
    return tree, {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }


def test_export_table_names_where_each_name_is_defined():
    # static: no submodule is imported to check this
    tree, assigned = _module_assignments(SRC / "__init__.py")
    exports = ast.literal_eval(assigned["_EXPORTS"])
    # __all__ holds the table's names, each written once
    assert ast.unparse(assigned["__all__"]) == "list(_EXPORTS)"
    assert len(assigned["_EXPORTS"].keys) == len(exports)
    defined = {module: set(_defined(ast.parse((SRC / f"{module}.py").read_text())))
               for module in set(exports.values())}
    missing = [f"{module}:{name}" for name, module in exports.items()
               if name not in defined[module]]
    assert missing == []
    # and the package's own top level imports none of its submodules
    eager = [ast.unparse(node) for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert eager == []


def test_import_loads_no_submodule_and_no_numpy():
    code = "import sys\nbefore = set(sys.modules)\nimport atomdecoh\n" + _NEW_MODULES
    assert _fresh(code) == "['atomdecoh']"


def test_every_public_name_is_the_object_its_submodule_defines():
    code = (
        "import importlib, atomdecoh\n"
        "wrong = [name for name in atomdecoh.__all__ if getattr(atomdecoh, name) is not\n"
        "         getattr(importlib.import_module('atomdecoh.' + atomdecoh._EXPORTS[name]), name)]\n"
        "print(wrong, all(name in vars(atomdecoh) for name in atomdecoh.__all__))"
    )
    assert _fresh(code) == "[] True"


def test_star_import_binds_all_public_names():
    code = (
        "from atomdecoh import *\n"
        "import atomdecoh\n"
        "print([name for name in atomdecoh.__all__ if name not in globals()],\n"
        "      'atomdecoh.cli' in __import__('sys').modules)"
    )
    assert _fresh(code) == "[] False"


def test_dir_lists_public_names_before_they_load():
    code = (
        "import sys\nimport atomdecoh\nbefore = set(sys.modules)\n"
        "print(set(atomdecoh.__all__) <= set(dir(atomdecoh)))\n" + _NEW_MODULES
    )
    assert _fresh(code) == "True\n[]"


def test_unknown_names_raise_attribute_error():
    code = (
        "import sys\nimport atomdecoh\nbefore = set(sys.modules)\n"
        "for name in ('no_such_name', '_moments', 'numpy', 'main'):\n"
        "    try:\n"
        "        getattr(atomdecoh, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "print(hasattr(atomdecoh, 'no_such_name'))\n" + _NEW_MODULES
    )
    assert _fresh(code).splitlines() == [
        "module 'atomdecoh' has no attribute 'no_such_name'",
        "module 'atomdecoh' has no attribute '_moments'",
        "module 'atomdecoh' has no attribute 'numpy'",
        "module 'atomdecoh' has no attribute 'main'",
        "False",
        "[]",
    ]


def test_submodule_names_resolve_after_a_bare_import():
    code = (
        "import atomdecoh, importlib\n"
        "print(all(getattr(atomdecoh, m) is importlib.import_module('atomdecoh.' + m)\n"
        "          for m in sorted(atomdecoh._SUBMODULES)))"
    )
    assert _fresh(code) == "True"


#: (a call that loads numpy, then an array call to a public name whose
#: submodule the first call did not load)
_LATE_ARRAY_CALLS = [
    ("atomdecoh.momentum_distribution(0.3, [0.0, 1.0])",
     "f_theta", "np.linspace(0.0, math.pi, 7)"),
    ("atomdecoh.f_theta(np.linspace(0.0, math.pi, 7))",
     "momentum_distribution", "0.3, np.array([0.0, 1e-3, 0.5, 4.0, 30.0])"),
    ("atomdecoh.momentum_distribution(0.3, [0.0, 1.0])",
     "hydrogen_kernel", "np.array([0.0, 0.5, 2.0, 40.0])"),
]


@pytest.mark.parametrize("first,name,args", _LATE_ARRAY_CALLS,
                         ids=["momentum_then_scattering", "scattering_then_momentum",
                              "momentum_then_density"])
def test_a_submodule_loaded_after_numpy_dispatches_arrays(first, name, args):
    # the second call gives the array it gives here, where every module saw
    # numpy at its import
    call = f"atomdecoh.{name}({args})" + (".values" if name == "momentum_distribution" else "")
    code = (
        "import math, sys\nimport numpy as np\nimport atomdecoh\n"
        f"{first}\n"
        f"late = 'atomdecoh.' + atomdecoh._EXPORTS[{name!r}]\n"
        "assert late not in sys.modules and 'numpy' in sys.modules, late\n"
        f"value = {call}\n"
        "assert sys.modules[late].np is np\n"
        "print(value.dtype, value.shape, value.tobytes().hex())"
    )
    expected = eval(call, {"atomdecoh": atomdecoh, "np": np, "math": math})
    assert _fresh(code) == f"{expected.dtype} {expected.shape} {expected.tobytes().hex()}"


#: each scalar entry point and the package's modules it loads, from before
#: ``import atomdecoh`` on; none of them loads numpy
_CLOSURES = {
    "atomdecoh.purity(0.5)":
        ["atomdecoh", "atomdecoh._numpy", "atomdecoh.density", "atomdecoh.quadrature"],
    "atomdecoh.quadrature.damped_moments(2.0, 0.5, 3)":
        ["atomdecoh", "atomdecoh._numpy", "atomdecoh.quadrature"],
    "atomdecoh.momentum_density(1.0, 0.5)":
        ["atomdecoh", "atomdecoh._numpy", "atomdecoh.momentum", "atomdecoh.quadrature",
         "dataclasses"],
    "atomdecoh.check_conditions(atomdecoh.ScatteringConfig(E_n_ev=1.0, z0=0.5))":
        ["atomdecoh", "atomdecoh._numpy", "atomdecoh.constants", "atomdecoh.density",
         "atomdecoh.quadrature", "atomdecoh.scattering", "dataclasses"],
}


@pytest.mark.parametrize("call", sorted(_CLOSURES),
                         ids=lambda call: call.split("(")[0].split(".")[-1])
def test_a_scalar_entry_point_loads_only_its_modules(call):
    code = f"import sys\nbefore = set(sys.modules)\nimport atomdecoh\n{call}\n" + _NEW_MODULES
    assert _fresh(code) == repr(_CLOSURES[call])
