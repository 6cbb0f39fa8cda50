"""Every import in the package modules is used (`__init__.py` re-exports
its imports and is exempt), every function and class has a caller, every
UPPER_CASE constant is read, and every config node stores its fields in
slots."""

import ast
import dataclasses
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

import pytest

import adexsim
from adexsim.circuit import CircuitNeuronConfig
from adexsim.model import AdExParameters

MODULES = sorted(p for p in Path(adexsim.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """'name (line n)' for each name an import binds and the module never
    reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from .model import simulate, step as one_step\nprint(os.path, one_step)\n")
    assert unused_imports(source) == ["math (line 2)", "simulate (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# module-level functions, classes and constants that only library users
# reach; each is documented in the README's "Library-only names" paragraph
LIBRARY_ONLY = ("csv_to_trace", "psp_metrics", "phase_plane", "FIRING_PATTERN_LABELS")
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def definitions(tree) -> list:
    """(name, statement) of each module-level function, class and UPPER_CASE
    constant (a name that an assignment binds) of a module."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(sub.id, node) for target in targets for sub in ast.walk(target)
                    if isinstance(sub, ast.Name) and sub.id.isupper()]
    return out


def methods(tree) -> list:
    """(class name, def node) of each method and classmethod of the module's
    classes.  Properties are exempt, as derived quantities, and so are
    dunder methods, which Python calls itself."""
    return [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not any(isinstance(d, ast.Name) and d.id == "property"
                        for d in node.decorator_list)]


def named(nodes, strings=False) -> set:
    """Every name that `nodes` read, write or reach as an attribute, and with
    `strings` every string constant (a name looked up at run time)."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)
    return out


def attributes(nodes) -> Counter:
    """How often `nodes` reach each name as an attribute (`obj.name`)."""
    return Counter(sub.attr for node in nodes for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def reads_from(tree, module: str) -> set:
    """The names of the package module `module` that `tree` reads: each it
    imports from it (`from .module import name`, at any depth) and reads by
    the name it binds, and each it reaches as an attribute of the module
    (`from . import module`, then `module.name`).  A local or an attribute
    of another object that has the same name is not one of them."""
    bound, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module == module:
                    bound[alias.asname or alias.name] = alias.name
                elif node.module is None and alias.name == module:
                    modules.add(alias.asname or alias.name)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in bound:
            out.add(bound[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            out.add(node.attr)
    return out


def dead_names(modules: dict, bench: list) -> list:
    """'module.name' for each module-level function, class or constant (see
    `definitions`) of `modules` ({module name: source}) that no other
    statement of its module names,
    no other module reads from it (`reads_from`), and no bench source and
    no LIBRARY_ONLY entry names, then 'module.Class.name' for each method
    or classmethod (see `methods`) that no attribute of the package outside
    its own body, no bench source and no LIBRARY_ONLY entry names."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = set(LIBRARY_ONLY)
    for source in bench:
        used |= named([ast.parse(source)], strings=True)
    dead = []
    for module, tree in trees.items():
        others = used.union(*(reads_from(t, module) for m, t in trees.items() if m != module))
        for name, statement in definitions(tree):
            elsewhere = [node for node in tree.body if node is not statement]
            if name not in others | named(elsewhere):
                dead.append(f"{module}.{name}")
    reached = attributes(trees.values())
    for module, tree in trees.items():
        for cls, node in methods(tree):
            if node.name not in used and reached[node.name] <= attributes([node])[node.name]:
                dead.append(f"{module}.{cls}.{node.name}")
    return dead


def test_finds_a_dead_name():
    modules = {"a": "def used():\n    return helper()\n\ndef helper():\n    return helper\n",
               "b": "from .a import used\n\ndef caller():\n    return used()\n"
                    "\n\nclass Alone:\n    pass\n"}
    assert dead_names(modules, []) == ["b.caller", "b.Alone"]
    assert dead_names(modules, ["run('caller')\nAlone()\n"]) == []
    # a local or another object's attribute of the same name does not read
    # a function; an attribute of its module does
    shadowed = {**modules,
                "a": modules["a"] + "\ndef step():\n    return 0\n\ndef reached():\n    return 1\n",
                "c": "from . import a\n\ndef run(step):\n    return step.step + a.reached()\n"}
    assert dead_names(shadowed, []) == ["a.step", "b.caller", "b.Alone", "c.run"]


def test_finds_a_dead_method():
    modules = {"a": ("class Thing:\n"
                     "    def __post_init__(self):\n        self.used()\n"
                     "    def used(self):\n        return self\n"
                     "    def again(self):\n        return self.again()\n"
                     "    @property\n    def derived(self):\n        return 1\n"
                     "    @classmethod\n    def build(cls):\n        return cls()\n"
                     "    def alone(self):\n        return 0\n"),
               "b": "from .a import Thing\n\nThing.build()\n"}
    assert dead_names(modules, []) == ["a.Thing.again", "a.Thing.alone"]
    assert dead_names(modules, ["thing.again()\ngetattr(thing, 'alone')\n"]) == []
    # with no caller left, the class and its classmethod are dead too
    assert dead_names({**modules, "b": "from .a import Thing\n"}, []) == [
        "a.Thing", "a.Thing.again", "a.Thing.build", "a.Thing.alone"]


def test_finds_a_dead_constant():
    modules = {"a": ("NO_DECAY = 'did not decay'\nFLOOR = 0.02\nLOW, HIGH = 1, 2\n"
                     "LIMIT: float = 3.0\nlower = 4\n\ndef fit():\n    return FLOOR + LOW\n"),
               "b": "from .a import HIGH, fit\n\nfit(HIGH)\n"}
    assert dead_names(modules, []) == ["a.NO_DECAY", "a.LIMIT"]
    # a constant that only its own statement names is not read
    assert dead_names({**modules, "b": "from .a import fit\n\nfit()\n"}, [
        "from adexsim.a import NO_DECAY, LIMIT\nprint(NO_DECAY, LIMIT)\n"]) == ["a.HIGH"]


def test_every_function_and_class_has_a_caller():
    # a name, method or constant that only tests or __init__.py reach is an
    # option no run uses
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_names(modules, [p.read_text(encoding="utf-8") for p in BENCH]) == []


def engine_readers(modules: dict) -> list:
    """'module.name' of each module-level function or class of `modules`
    ({module name: source}) that names `_engine` (as a name, an attribute
    or an import), and 'module' where a module-level statement does, but
    for the engine's one caller `circuit.simulate_population`."""
    out = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            name = getattr(node, "name", None)
            if (module, name) == ("circuit", "simulate_population"):
                continue
            if any(isinstance(sub, ast.Name) and sub.id == "_engine"
                   or isinstance(sub, ast.Attribute) and sub.attr == "_engine"
                   or isinstance(sub, ast.alias) and sub.name == "_engine"
                   for sub in ast.walk(node)):
                out.append(f"{module}.{name}" if name else module)
    return out


def test_finds_an_engine_reader():
    modules = {"circuit": ("def _engine():\n    return 0\n\n"
                           "def simulate_population():\n    return _engine()\n"),
               "measure": "from .circuit import _engine\n\ndef measure_b():\n    return _engine()\n",
               "other": ("from . import circuit\n\nclass Run:\n"
                         "    def go(self):\n        return circuit._engine()\n")}
    assert engine_readers(modules) == ["measure", "measure.measure_b", "other.Run"]


def test_only_simulate_population_runs_the_engine():
    # every engine run goes through simulate_population, so that what wraps
    # it (a tracer, a counter) sees each run
    package = Path(adexsim.__file__).resolve().parent
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert engine_readers(modules) == []


def test_engine_run_leaves_numpy_ma_unimported(cli_env):
    # numpy.ma takes about 15 ms to import, which every `adexsim simulate`
    # child would pay; the engine's set-up and spike split do without it
    code = ("import sys\n"
            "from adexsim.circuit import default_circuit_config, simulate_population\n"
            "from adexsim.model import StimulusProgram\n"
            "run = simulate_population(default_circuit_config(adaptation_enabled=True), 3,\n"
            "                          StimulusProgram.constant(100e-9),\n"
            "                          duration=60e-6, dt=0.05e-6)\n"
            "assert all(len(spikes) for spikes in run.spikes)\n"
            "print('numpy.ma' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=cli_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# numpy functions that run Python code around their C work on each call
NUMPY_WRAPPERS = ("flatnonzero", "count_nonzero", "nonzero", "where")


def engine_loop_wrappers(source: str) -> list:
    """'name (line n)' for each call of a NUMPY_WRAPPERS function, as
    `np.name` or through a local bound to it, inside the
    `for k in range(n_steps)` loop of `_engine`.  Raises ValueError where
    the module has no such loop."""
    engine = next((node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef) and node.name == "_engine"), None)
    loops = [node for node in ast.walk(engine or ast.Module(body=[]))
             if isinstance(node, ast.For) and ast.unparse(node.target) == "k"
             and ast.unparse(node.iter) == "range(n_steps)"]
    if not loops:
        raise ValueError("no `for k in range(n_steps)` loop in _engine")

    def wrapper(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np" and node.attr in NUMPY_WRAPPERS):
            return node.attr
        return None

    # locals bound to a wrapper, also as one of a tuple assignment's names
    aliases = {}
    for node in ast.walk(engine):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                for name, value in pairs:
                    if isinstance(name, ast.Name) and wrapper(value):
                        aliases[name.id] = wrapper(value)
    calls = []
    for loop in loops:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                name = wrapper(node.func) or (isinstance(node.func, ast.Name)
                                              and aliases.get(node.func.id))
                if name:
                    calls.append((node.lineno, node.col_offset, name))
    return [f"np.{name} (line {line})" for line, _, name in sorted(calls)]


def test_finds_a_numpy_wrapper_in_the_engine_loop():
    source = ("import numpy as np\n\n"
              "def _engine(x, n_steps):\n"
              "    count, add = np.count_nonzero, np.add\n"
              "    where = np.where\n"
              "    idx = np.flatnonzero(x)\n"
              "    for k in range(n_steps):\n"
              "        add(x, 1.0, x)\n"
              "        if count(x):\n"
              "            x[np.nonzero(x)[0]] = where(x > 0, 1.0, 0.0)\n"
              "        idx = x.nonzero()[0]\n"
              "    return idx\n")
    assert engine_loop_wrappers(source) == [
        "np.count_nonzero (line 9)", "np.nonzero (line 10)", "np.where (line 10)"]
    with pytest.raises(ValueError, match="no `for k in range"):
        engine_loop_wrappers(source.replace("range(n_steps)", "range(steps)"))


def test_engine_loop_calls_no_numpy_wrapper():
    # a wrapper costs about a microsecond of Python per call on every
    # step; the loop takes the ufuncs and array methods it wraps
    source = (Path(adexsim.__file__).resolve().parent / "circuit.py").read_text(encoding="utf-8")
    assert engine_loop_wrappers(source) == []


def slotless(root) -> list:
    """Name of `root` and of each dataclass its fields reach by their
    annotated types, in the order reached, that has no `__slots__` of its
    own: each of its instances carries a __dict__."""
    reached, out, todo = set(), [], [root]
    while todo:
        cls = todo.pop(0)
        if cls in reached:
            continue
        reached.add(cls)
        if "__slots__" not in vars(cls):
            out.append(cls.__name__)
        todo += [t for t in typing.get_type_hints(cls).values() if dataclasses.is_dataclass(t)]
    return out


@dataclasses.dataclass(frozen=True, slots=True)
class SlottedLeaf:
    x: float


@dataclasses.dataclass(frozen=True)
class LooseNode:
    leaf: SlottedLeaf
    y: float = 0.0


@dataclasses.dataclass(frozen=True, slots=True)
class SlottedRoot:
    loose: LooseNode
    leaf: SlottedLeaf


def test_finds_a_node_without_slots():
    assert slotless(SlottedRoot) == ["LooseNode"]
    assert slotless(LooseNode) == ["LooseNode"]
    assert slotless(SlottedLeaf) == []


@pytest.mark.parametrize("root", [CircuitNeuronConfig, AdExParameters],
                         ids=lambda root: root.__name__)
def test_config_nodes_have_slots(root):
    # a population's scalar neurons are nine such nodes each, thousands of
    # them in a wide population: a node with a __dict__ multiplies its size
    assert slotless(root) == []
