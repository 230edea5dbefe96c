"""Checks on the source tree itself.

The traced benchmark wraps package functions by looking each one up
in its owner's ``__dict__``; a refactor that moves or renames one of
them would make the traced run raise, so every target is checked here,
and a traced Carleson run must count the points of its cone meshes.
A module-level name that nothing else in the package uses is dead code
(a re-export from an ``__init__.py`` is not a use, nor is an attribute
read on anything but an imported module), and a README example that
names a removed entry point no longer runs.
The benchmark's configs and the README's key table must both agree with
the ``[scenario]`` key tables.  Array sums follow ``siolab.summation``
alone: no source or test names a float type whose width depends on the
platform, and ``math.fsum`` takes an array only in the one place that
README names.  In the harness, only ``config.blame`` maps a ValueError
to a configuration error.  The count of settable values (parameters and
fields with a default) is pinned, so a new knob is a deliberate change.
Importing the harness loads neither ``concurrent.futures`` nor
``multiprocessing``: only a run on more than one worker builds its thread
pool, and no source names ``multiprocessing``.
The compiled loops are built without FMA contraction or fast-math, which
would round them differently from their oracles in ``tests/oracles.py``,
and without flags that tie the library to one host's CPU; with ``-Wall
-Wextra -Werror`` added, ``sups.c`` still compiles, and it exports every
symbol that ``operators._compiled`` binds, each with one argtype of the
matching kind per C parameter; a compile leaves no library of an earlier source in
the build directory, and concurrent first calls build one library.  The
built library holds no FMA instruction, and its AVX-512 copies take their
square roots with vsqrtpd, never a scalar vsqrtsd per lane; the AVX-512
T* and M loops load and store no vector at a stack address.  The compiled loops are the only implementation:
without ``cc`` or a compile, the loader's error names ``cc``, the build
directory and the compiler's message, and no source or test takes
another path.  The only ``noqa`` lines are the four re-imports that keep
a name bound for the tracer.  Under the suite's warning filters, a
falsified hypothesis test is reported with its example and the run goes
on.
"""

import ast
import ctypes
import importlib.util
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
PACKAGE = ROOT / "src" / "siolab"
README = ROOT / "README.md"
PYPROJECT = ROOT / "pyproject.toml"

pytest_plugins = ["pytester"]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_are_bound_on_their_owners():
    targets = _load("perfbench_tracing", TRACING)._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_carleson_run_sees_the_cone_mesh():
    # every apex's mesh is built by cone_mesh, where the tracer counts its points
    from siolab import operators
    from siolab.harness import config_from_dict, run_scenario

    tracing = _load("perfbench_tracing", TRACING)
    cfg = {"scenario": {"tag": "CarlesonEmbedding", "seed": "3", "resolutions": "8, 16", "mesh_depth": "3",
                        "aperture": "3", "height_cap": "1"},
           "graph": {"profile": "sawtooth", "dim": "3", "amplitude": "0.3", "period": "0.5"}}
    with tracing.installed(tracing.Tracer()) as tracer:
        assert run_scenario(config_from_dict(cfg)).passed
    template = len(operators._cone_template(3.0, 1.0, 3, 2)[0])
    assert tracer.counts["operators.mesh_points"] == template * (8**2 + 16**2)  # one apex per atom of sigma
    assert any(name == "operators.cone_mesh" for _, _, name, _, _ in tracer.spans)


def _defined_names(tree):
    """(name, line) of each module-level def, class and assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno


def _module_aliases(tree):
    """Names that ``tree`` binds to a module: ``import m [as a]`` and
    ``from . import m [as a]`` (a relative import of a package member)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module is None):
            for alias in node.names:
                yield (alias.asname or alias.name).partition(".")[0]


def _used_names(tree, reexports: bool):
    """Names read in ``tree``; an attribute ``a.name`` counts as a use of
    ``name`` only where ``a`` is a module the file imports (a field read
    such as ``result.name`` does not keep a function ``name`` alive), and
    import aliases count only where they are not ``reexports`` (the
    ``noqa`` re-imports that the tracer wraps)."""
    modules = set(_module_aliases(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            yield node.attr
        elif isinstance(node, ast.alias) and not reexports:
            yield node.name


# public entry points that only the tests or the README call
_PUBLIC_FOR_USERS = {
    "truncated": "the README example of one truncation radius",
    "maximal": "the README example of the exact sup over all radii",
    "config_from_dict": "an in-memory config in the file format's shape",
    "antisymmetry_residual": "max |K(x) + K(-x)| over a sample; acceptance criterion 6 and test_kernel call it"
                             " (the scenarios read only KernelValidation's field of that name)",
}


def test_every_module_level_name_is_used_in_the_package():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    assert trees
    used = {name for path, tree in trees.items() for name in _used_names(tree, path.name == "__init__.py")}
    used |= _PUBLIC_FOR_USERS.keys()
    dead = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _defined_names(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_benchmark_configs_pass_the_scenario_schema():
    # a key the schema rejects would otherwise fail only the benchmark run
    from siolab.harness import config_from_dict
    from siolab.harness.scenarios import read_scenario

    workloads = _load("perfbench_workloads", WORKLOADS)
    checked = 0
    for workload in workloads.WORKLOADS:
        for name, cfg in workloads.configs(workload, 0):
            _, values = read_scenario(config_from_dict(cfg))
            assert set(cfg["scenario"]) - {"tag", "seed"} <= set(values), name
            checked += 1
    assert checked > 0


def test_readme_lists_every_scenario_key():
    from siolab.harness.config import REQUIRED, _fmt
    from siolab.harness.scenarios import SCENARIOS

    rows = re.findall(r"^\| (\w+) \| `(\w+)` \| (\w+) \| ([^|]*?) \| ([^|]*?) \|$", README.read_text(), re.M)
    readme = [(tag.lower(), key, kind, default, limits.split("; ")[0]) for tag, key, kind, default, limits in rows]
    schema = [(tag, key, spec) for tag, (_, keys) in SCENARIOS.items() for key, spec in keys.items()]
    assert {row[:3] for row in readme} == {(tag, key, spec.kind) for tag, key, spec in schema}
    for tag, key, spec in schema:
        default = "required" if spec.default is REQUIRED else None if spec.default is None else _fmt(spec.default)
        assert any(
            row[:3] == (tag, key, spec.kind)
            and default in (None, row[3])
            and spec.rules in ("", row[4])
            for row in readme
        ), (tag, key)


def test_no_platform_dependent_float_type_is_named():
    pattern = re.compile(rb"long[d]ouble|float(128|96)")
    hits = [
        str(path.relative_to(ROOT))
        for top in (PACKAGE, ROOT / "tests")
        for path in sorted(top.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and pattern.search(path.read_bytes())
    ]
    assert hits == []


def _fsum_of_array_sites(tree, scope=""):
    """Qualified names of the functions in which ``fsum`` is called on an
    argument that contains a ``.tolist()`` call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _fsum_of_array_sites(node, f"{scope}{node.name}.")
            continue
        for call in ast.walk(node):
            func = getattr(call, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) != "fsum":
                continue
            if any(getattr(sub, "func", None) is not None and getattr(sub.func, "attr", None) == "tolist"
                   for arg in call.args for sub in ast.walk(arg)):
                yield scope.rstrip(".")


def test_fsum_takes_an_array_only_in_the_total_mass():
    # every other array total is a Sum2 of siolab.summation
    sites = {
        f"{path.stem}.{site}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for site in _fsum_of_array_sites(ast.parse(path.read_text()))
    }
    assert sites == {"measure.DiscreteMeasure.total_mass"}


def test_kernel_and_summation_pass_no_out_buffer():
    # the numpy kernel rule and Sum2 are plain references: no call writes
    # into a buffer it was handed or one it aliases
    calls = [
        f"{name}:{call.lineno}"
        for name in ("kernel.py", "summation.py")
        for call in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if isinstance(call, ast.Call) and any(kw.arg == "out" for kw in call.keywords)
    ]
    assert calls == []


def _value_error_handler_sites(tree, scope=""):
    """Qualified names of the functions with an ``except`` clause that names ``ValueError``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _value_error_handler_sites(node, f"{scope}{node.name}.")
            continue
        for handler in ast.walk(node):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None and any(
                isinstance(sub, ast.Name) and sub.id == "ValueError" for sub in ast.walk(handler.type)
            ):
                yield scope.rstrip(".")


def test_value_errors_reach_exit_2_only_through_blame():
    # config.blame is the one map from a library ValueError to a config error;
    # get_as turns the text of a value into its kind
    sites = {
        f"{path.stem}.{site}"
        for path in sorted((PACKAGE / "harness").rglob("*.py"))
        for site in _value_error_handler_sites(ast.parse(path.read_text()))
    }
    assert sites == {"config.blame", "config.Config.get_as"}


def _settable_values(tree):
    """Parameters with a default (positional or keyword-only) plus
    class-body annotated assignments with a value (dataclass and
    NamedTuple fields with a default)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from node.args.defaults
            yield from (d for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef):
            yield from (s for s in node.body if isinstance(s, ast.AnnAssign) and s.value is not None)


def test_settable_values_do_not_grow():
    # a change that needs a new knob raises this number and says why
    count = sum(len(list(_settable_values(ast.parse(path.read_text())))) for path in PACKAGE.rglob("*.py"))
    assert count <= 26


def test_harness_import_loads_no_pool_module():
    # a run on one worker builds no pool, so it need not pay for the import;
    # the workers are threads, so nothing forks
    check = ("import sys, siolab.harness; loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules);"
             " assert not loaded, loaded")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", check], cwd=ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert [path.name for path in PACKAGE.rglob("*") if path.suffix in (".py", ".c")
            and "multiprocessing" in path.read_text()] == []


def test_compiled_sups_round_as_numpy_does():
    from siolab.operators import _CFLAGS

    assert "-ffp-contract=off" in _CFLAGS
    assert not {"-ffast-math", "-Ofast"} & set(_CFLAGS)


def test_compiled_sups_build_for_any_host_of_the_architecture():
    # the library is keyed by source and flags, not by host, so a checkout
    # shared between hosts must not load code that one of them cannot run;
    # the AVX-512 copy is chosen at run time instead
    from siolab.operators import _CFLAGS

    assert [flag for flag in _CFLAGS if flag.startswith(("-march", "-mtune", "-mavx"))] == []


def test_sups_compile_without_warnings_and_export_every_bound_symbol(tmp_path):
    from siolab.operators import _CFLAGS

    lib = tmp_path / "sups.so"
    build = subprocess.run(
        ["cc", *_CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", lib, PACKAGE / "sups.c"], capture_output=True, text=True
    )
    assert build.returncode == 0, build.stderr
    bound = {  # read from the library; an attribute stored on it (the probed lane count) is not a symbol
        node.attr
        for node in ast.walk(_compiled_loader())
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dll"
        and isinstance(node.ctx, ast.Load)
    }
    dll = ctypes.CDLL(str(lib))
    exports = {"row_sups", "truncated_rows", "pair_partials", "sum2_rows", "sup_lanes"}
    assert exports <= bound
    assert [name for name in sorted(bound) if not hasattr(dll, name)] == []


def _compiled_loader() -> ast.FunctionDef:
    return next(
        node for node in ast.parse((PACKAGE / "operators.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_compiled"
    )


# the ctypes name that operators._compiled binds for each C parameter type
_CTYPES_OF_C = {"int64_t": "size", "double *": "f64", "int64_t *": "i64", "uint8_t *": "flag"}


def _c_kind(param: str) -> str:
    """The ctypes name for one C parameter such as ``const double *pts``."""
    kind = re.sub(r"^const |\w+$", "", param.strip()).strip()
    return _CTYPES_OF_C.get(kind, kind)


def test_bound_argtypes_match_the_c_parameter_lists():
    # ctypes passes any argument past a short argtypes list unchecked, and
    # an array bound as another kind (or a count where an array goes) is
    # read as whatever its bytes are: each parameter's kind must match
    argtypes = {
        node.targets[0].value.attr: [elt.id for elt in node.value.elts]
        for node in ast.walk(_compiled_loader())
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute)
        and node.targets[0].attr == "argtypes"
    }
    params = {
        name: [] if args == "void" else [_c_kind(arg) for arg in args.split(",")]
        for name, args in re.findall(r"^(?:int|void) (\w+)\(([^)]*)\)", (PACKAGE / "sups.c").read_text(), re.MULTILINE)
    }
    assert argtypes == params
    assert {name: len(kinds) for name, kinds in params.items()} == {
        "row_sups": 15, "truncated_rows": 11, "pair_partials": 15, "sum2_rows": 4, "sup_lanes": 0,
    }


def test_sups_include_only_the_c_library_headers_they_need():
    # a cold build's cc1 counts in the benchmark's peak RSS: immintrin.h
    # raised the compile's peak from 36 to 101 MiB (GCC vector extensions
    # and builtins need no header); the file also includes itself, its
    # loop section once per lane width
    includes = re.findall(r"^\s*#\s*include\s*(\S+)", (PACKAGE / "sups.c").read_text(), re.MULTILINE)
    assert [header for header in includes if header != "__FILE__"] == ["<math.h>", "<stdint.h>", "<stdlib.h>"]


def test_each_compiled_loop_is_written_once():
    # the loops are one text built at each lane width (a definition of L(f)
    # is f's), not a scalar copy and a vector twin kept bit-equal by hand;
    # only the entries are exported
    source = re.sub(r"__attribute__\(\(\w+\)\) ", "", (PACKAGE / "sups.c").read_text())
    names = [re.sub(r"^L\((\w+)\)$", r"\1", name)
             for name in re.findall(r"^(?!typedef )[A-Za-z][\w ]* \**(L\(\w+\)|\w+)\(", source, re.MULTILINE)]
    assert len(names) == len(set(names))
    assert {"cells", "tstar_row", "tstar_block", "hl_block", "sups", "truncated", "pairs"} <= set(names)
    assert [name for name in names if "avx512" in name] == []
    exported = re.findall(r"^(?!static |TARGET static )\w+ \**(\w+)\(", source, re.MULTILINE)
    assert sorted(exported) == ["pair_partials", "row_sups", "sum2_rows", "sup_lanes", "truncated_rows"]


def _builds_avx512_copies() -> bool:
    """Whether ``cc`` builds the AVX-512 copies of ``sups.c``: GCC (not
    clang) on x86-64, the source's own condition."""
    macros = subprocess.run(["cc", "-dM", "-E", "-"], input="", capture_output=True, text=True).stdout
    return platform.machine() == "x86_64" and "__GNUC__" in macros and "__clang__" not in macros


@pytest.mark.skipif(shutil.which("objdump") is None, reason="needs objdump")
@pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 mnemonics")
def test_compiled_loops_hold_no_fma_and_only_vector_square_roots():
    # an FMA rounds once where the oracles round twice; a square root per
    # lane written with sqrt compiles to 8 scalar vsqrtsd, where the
    # AVX-512 copies need one vsqrtpd (the scalar copies' SSE2 sqrtsd is
    # another mnemonic)
    from siolab import operators

    listing = subprocess.run(["objdump", "-d", operators._compiled()._name], capture_output=True, text=True,
                             check=True).stdout
    # an instruction line is address, bytes and instruction, tab-separated
    mnemonics = {fields[2].split()[0] for fields in (line.split("\t") for line in listing.splitlines())
                 if len(fields) > 2 and fields[2].strip()}
    assert mnemonics
    assert sorted(m for m in mnemonics if re.match(r"vfn?m(add|sub)", m)) == []
    assert "vsqrtsd" not in mnemonics
    assert ("vsqrtpd" in mnemonics) == _builds_avx512_copies()


@pytest.mark.skipif(shutil.which("objdump") is None, reason="needs objdump")
@pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 mnemonics")
def test_t_star_loops_keep_their_vectors_off_the_stack():
    # a vector read by lane after the loop (LANE(best, l)) kept tstar_row's
    # running max in a stack slot: two zmm loads and a store at every
    # distance-group end, and hl_block's max and divergence mask in two
    # stack slots, loaded and stored in every chunk; the lanes now leave
    # through a store, and the blocks read their scratch through a pointer,
    # so no zmm register is loaded from or stored to an address off %rsp or
    # %rbp in any of them
    from siolab import operators

    if not _builds_avx512_copies():
        pytest.skip("cc builds no AVX-512 copies")
    listing = subprocess.run(["objdump", "-d", operators._compiled()._name], capture_output=True, text=True,
                             check=True).stdout
    for name in ("tstar_row_8", "tstar_block_8", "hl_block_8"):
        body = re.search(rf"^[0-9a-f]+ <{name}(?:\.\w+)*>:\n(.*?)(?:\n\n|\Z)", listing, re.S | re.M)
        assert body, name
        stack = [line for line in body.group(1).splitlines() if "%zmm" in line and re.search(r"\(%r[sb]p", line)]
        assert stack == [], name


def _copied_source(tmp_path, monkeypatch, extra=""):
    """(operators, build directory) with the loader pointed at a copy of
    ``sups.c`` plus ``extra`` in ``tmp_path``, where no library is cached."""
    from siolab import operators

    source = tmp_path / "sups.c"
    source.write_text((PACKAGE / "sups.c").read_text() + extra)
    monkeypatch.setattr(operators, "_SUPS_SOURCE", source)
    return operators, tmp_path / "build"


def test_compile_leaves_only_the_current_library(tmp_path, monkeypatch):
    # the libraries of earlier sources go; another process's temporary,
    # renamed into place once its compile ends, stays
    operators, build = _copied_source(tmp_path, monkeypatch)
    build.mkdir()
    for name in ("sups_00000000.so", "sups_deadbeef.so", "sups_deadbeef.4242.so"):
        (build / name).write_bytes(b"")
    operators._compiled.__wrapped__()
    current = [p.name for p in build.glob("sups_????????.so")]
    assert len(current) == 1
    assert sorted(p.name for p in build.iterdir()) == sorted([*current, "sups_deadbeef.4242.so"])


def test_concurrent_first_calls_build_one_library(tmp_path, monkeypatch):
    # threads share the pid that names the build's temporary: without the
    # build lock, each compiles into it, and one's rename can take another's
    operators, build = _copied_source(tmp_path, monkeypatch)
    start = threading.Barrier(4)
    errors, compiles = [], []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: compiles.append(args) or run(*args, **kwargs))

    def first_call():
        start.wait()
        try:
            operators._compiled.__wrapped__()
        except RuntimeError as err:
            errors.append(err)

    threads = [threading.Thread(target=first_call) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(compiles) == 1
    libraries = list(build.iterdir())
    assert len(libraries) == 1 and libraries[0].match("sups_????????.so")


def test_noqa_lines_are_the_tracer_reimports():
    # each keeps a name bound where perfbench/tracing.py wraps it; count them down, never up
    lines = sorted(
        (path.relative_to(PACKAGE).as_posix(), line.partition("#")[0].strip().rstrip(","))
        for path in PACKAGE.rglob("*")
        if path.suffix in (".py", ".c")
        for line in path.read_text().splitlines()
        if "noqa" in line
    )
    assert lines == [
        ("harness/scenarios.py", "hl_maximal_batch"),
        ("harness/scenarios.py", "nontangential_max"),
        ("harness/scenarios.py", "pair_sum_stats"),
        ("pairing.py", "from .operators import pair_sum_stats"),
    ]


def test_loader_without_cc_names_cc_and_the_build_directory(tmp_path, monkeypatch):
    operators, build = _copied_source(tmp_path, monkeypatch)
    monkeypatch.setenv("PATH", str(tmp_path / "no-compiler-here"))
    with pytest.raises(RuntimeError) as raised:
        operators._compiled.__wrapped__()
    assert "`cc`" in str(raised.value) and str(build) in str(raised.value)


def test_failed_compile_reports_the_compiler_and_leaves_no_temporary(tmp_path, monkeypatch):
    operators, build = _copied_source(tmp_path, monkeypatch, "\nint broken(void) { return }\n")
    with pytest.raises(RuntimeError) as raised:
        operators._compiled.__wrapped__()
    assert "`cc`" in str(raised.value) and "error: expected expression" in str(raised.value)
    assert list(build.iterdir()) == []  # no sups_<crc>.<pid>.so


def _nodes(paths, kind):
    return [(path.name, node) for path in paths for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, kind)]


def test_each_compiled_loop_has_one_path():
    # the compiled loops are the only implementation: no source compares
    # the library (lib) or its loader's result with None, and no test
    # patches the loader to return None
    def loader(x):  # lib, or a call such as _compiled()
        x = getattr(x, "func", x)
        return getattr(x, "id", getattr(x, "attr", None)) in ("lib", "_compiled")

    def none(x):
        return isinstance(x, ast.Constant) and x.value is None

    sources = [(name, node.lineno) for name, node in _nodes(PACKAGE.rglob("*.py"), ast.Compare)
               if any(map(none, [node.left, *node.comparators])) and any(map(loader, [node.left, *node.comparators]))]
    patches = [(name, node.lineno) for name, node in _nodes((ROOT / "tests").glob("*.py"), ast.Call)
               if any(isinstance(a, ast.Constant) and a.value == "_compiled" for a in node.args)
               and any(isinstance(a, ast.Lambda) and none(a.body) for a in node.args)]
    assert sources == patches == []


def test_a_falsified_given_test_is_reported_and_the_run_goes_on(pytester):
    # under the suite's filterwarnings = ["error"], hypothesis' report hook
    # raised mypy_extensions' TypedDict DeprecationWarning as an
    # INTERNALERROR: the falsifying example went unreported and no later
    # test ran.  In a fresh process, since the warning comes only at the
    # first import that raises it.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_falsified="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(x):
            assert x < 5

        def test_next():
            pass
    """)
    result = pytester.runpytest_subprocess("test_falsified.py", "-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str()
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.assert_outcomes(failed=1, passed=1)
