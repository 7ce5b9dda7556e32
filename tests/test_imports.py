"""numpy is the package's only runtime dependency, every top-level name in
the package has a user, the CLI has one writer for report CSVs, the forward
cache keeps only what backward reads, the loss record's fields are read
by name only where an oracle isolates one term, and training.py runs no
evaluation pass outside `evaluate`."""

import ast
import subprocess
import sys
from pathlib import Path

import ferhead


def test_imports_load_no_scipy():
    """scipy is installed here but not declared, so nothing may import it."""
    code = (
        "import sys; import ferhead, ferhead.cli, ferhead.verification; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    src = str(Path(ferhead.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_train_command_leaves_numpy_ma_unimported(tmp_path):
    """Importing numpy.ma costs a train command 10-17 ms; nothing in a run needs it."""
    table = str(tmp_path / "t.bin")
    code = (
        "import sys; from ferhead import cli; "
        f"cli.main(['synth', '--classes', '3', '--actions', '4', '--dim', '8', "
        f"'--per-class', '4', '--out-bin', {table!r}]); "
        "assert cli.main(['train', '--input-dim', '8', '--latent-dim', '4', "
        "'--n-latents', '3', '--n-classes', '3', '--epochs', '1', '--decay-epochs', '', "
        f"'--batch-size', '6', '--train-path', {table!r}]) == 0; "
        "assert 'numpy.ma' not in sys.modules"
    )
    src = str(Path(ferhead.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def _named(tree: ast.AST, skip: tuple[int, int] | None = None) -> set[str]:
    """Names, attributes, imported names and string constants in `tree`,
    leaving out the nodes within the lines `skip` spans."""
    found = set()
    for node in ast.walk(tree):
        if skip and skip[0] <= getattr(node, "lineno", 0) <= skip[1]:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)  # perfbench/spans.py names the functions it traces
    return found


def test_every_top_level_def_and_class_is_named_outside_itself():
    """A def or class in src/ferhead is named in src/ferhead (not counting
    __init__.py's re-exports) or in perfbench, outside its own definition."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "ferhead").glob("*.py"))
    searched = [p for p in package if p.name != "__init__.py"]
    searched += sorted((root / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in package + searched}
    names = {q: _named(trees[q]) for q in searched}
    unused = []
    for p in package:
        for node in trees[p].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            span = (node.lineno, node.end_lineno)
            if not any(
                node.name in (_named(trees[q], span) if q == p else names[q]) for q in searched
            ):
                unused.append(f"{p.name}:{node.lineno} {node.name}")
    assert unused == []


def test_cli_opens_files_only_in_write_csv():
    """Every report CSV goes through cli.write_csv: a call to `open` in cli.py
    appears once in it and nowhere else, so a second hand-written CSV writer
    cannot come back unnoticed (the run record is written inside the
    checkpoint by training.save_checkpoint)."""
    path = Path(__file__).resolve().parents[1] / "src" / "ferhead" / "cli.py"
    scopes = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    scopes.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    assert scopes == ["write_csv"]


def test_backward_reads_every_forward_cache_field():
    """Each ForwardCache field's values are read as `cache.<field>` in
    head.backward, so no (N, M, D) buffer is kept
    that the reverse pass does not need. A field read only for its
    `.shape`, `.dtype` or `.ndim` counts as unread: its metadata is known
    without its buffer."""
    path = Path(__file__).resolve().parents[1] / "src" / "ferhead" / "head.py"
    body = {node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    cache_fields = {
        node.target.id for node in body["ForwardCache"].body if isinstance(node, ast.AnnAssign)
    }
    nodes = list(ast.walk(body["backward"]))
    metadata_only = {
        id(node.value)
        for node in nodes
        if isinstance(node, ast.Attribute) and node.attr in ("shape", "dtype", "ndim")
    }
    read = {
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cache"
        and id(node) not in metadata_only
    }
    assert cache_fields and sorted(cache_fields - read) == []


def test_no_module_reads_a_loss_breakdown_field_by_name():
    """LossBreakdown's fields are the training log's loss_* columns, and
    training, the log, backward's finiteness check and the gradient oracle's
    component losses walk them with dataclasses.fields/astuple/asdict, so a
    new loss is one new field. No module reads one as `<expr>.<field>`."""
    package = Path(__file__).resolve().parents[1] / "src" / "ferhead"
    head_tree = ast.parse((package / "head.py").read_text(encoding="utf-8"))
    (record,) = (node for node in head_tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "LossBreakdown")
    loss_fields = {node.target.id for node in record.body if isinstance(node, ast.AnnAssign)}
    readers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in loss_fields):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert loss_fields == {"total", "cls", "compact", "balance", "distribution"}
    assert readers == []


def test_training_runs_no_evaluation_pass_outside_evaluate():
    """The accuracy pass is made where the log reports it, in cli.run_training:
    no function in training.py but `evaluate` calls `evaluate` or
    `forward_in_blocks`, so the step loop cannot take one on again."""
    path = Path(__file__).resolve().parents[1] / "src" / "ferhead" / "training.py"
    callers = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "evaluate":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("evaluate", "forward_in_blocks"):
                    callers.append(f"{fn.name}:{node.lineno} {name}")
    assert callers == []
