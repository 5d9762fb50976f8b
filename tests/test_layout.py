"""Source layout rules that keep src/ to one implementation per concept."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "josnc"

# public names with no caller in src/, each for a stated reason (cli.main
# needs no entry: its __main__ guard calls it)
ALLOWED_UNREFERENCED = {
    "harness.load_checkpoint": "reader of checkpoint.bin, kept for resume",
    "selector.Partition.check_sound":
        "set-level soundness check for step_hook consumers; the trainer "
        "checks its codes with selector.check_codes",
}


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each public
    module-level function or class and each public method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        if not node.name.startswith("_"):
            yield (f"{module}.{node.name}", node.name, node.lineno,
                   node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, kinds[:2])
                        and not item.name.startswith("_")):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _loads(tree: ast.Module):
    """(bare name, line) of every name or attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_public_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    loads = {module: list(_loads(tree)) for module, tree in trees.items()}
    unreferenced = []
    for module, tree in trees.items():
        for qualified, name, first, last in _public_definitions(module, tree):
            used = any(ref == name and not (other == module
                                            and first <= line <= last)
                       for other, refs in loads.items()
                       for ref, line in refs)
            if not used:
                unreferenced.append(qualified)
    missing = sorted(set(unreferenced) - set(ALLOWED_UNREFERENCED))
    stale = sorted(set(ALLOWED_UNREFERENCED) - set(unreferenced))
    assert missing == [], f"public names without a caller in src/: {missing}"
    assert stale == [], f"allowlisted names that have a caller or are gone: {stale}"


def _train_config_fields(tree: ast.Module):
    """Field names of trainer.TrainConfig, and the (first, last) line
    ranges of its own validation: __post_init__ and _FIELD_RULES."""
    fields, validation = [], []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "TrainConfig":
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    fields.append(item.target.id)
                elif (isinstance(item, ast.FunctionDef)
                      and item.name == "__post_init__"):
                    validation.append((item.lineno, item.end_lineno))
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "_FIELD_RULES"
                      for t in node.targets)):
            validation.append((node.lineno, node.end_lineno))
    return fields, validation


def test_every_train_config_field_is_read_in_src():
    # no config key that does nothing: each TrainConfig field is read as an
    # attribute somewhere in src/ outside its own validation
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    fields, validation = _train_config_fields(trees["trainer"])
    assert fields and len(validation) == 2
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and not (module == "trainer"
                             and any(first <= node.lineno <= last
                                     for first, last in validation))):
                read.add(node.attr)
    unread = [name for name in fields if name not in read]
    assert unread == [], f"TrainConfig fields nothing in src/ reads: {unread}"


def _raised_names(tree: ast.Module):
    """Bare names a raise statement raises: the class it names or calls,
    and, for `raise make(...)`, the classes the function make returns."""
    def called(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None))

    raised = {called(node.exc) for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in raised:
            raised |= {called(node.value) for node in ast.walk(fn)
                       if isinstance(node, ast.Return) and node.value}
    return raised


def test_every_exception_class_is_raised_in_src():
    # an error type whose last raise is gone is dead code
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", "").endswith(("Error", "Exception"))
                       for base in node.bases)}
    raised = set().union(*(_raised_names(tree) for tree in trees))
    assert defined, "no exception classes found in src/"
    never = sorted(defined - raised)
    assert never == [], f"exception classes never raised in src/: {never}"


def test_fit_is_the_one_divergence_handler():
    # per-call DiffMathError handlers missed raise sites; one handler around
    # fit's epoch loop covers them all, and only fit holds the history and
    # weights that a TrainingDiverged carries
    handlers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ExceptHandler) and node.type):
                continue
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for n in ast.walk(node.type)}
            if "DiffMathError" in names:
                owner = [d.name for d in tree.body
                         if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                         and d.lineno <= node.lineno <= d.end_lineno]
                handlers.append((path.stem, *owner))
    assert handlers == [("trainer", "fit")], handlers


def _bare_names(node):
    """The names and attribute names read anywhere in node."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


def test_training_diverged_is_built_only_by_fit_handler():
    # a step's non-finite loss or weights raise DiffMathError like any other
    # overflow, so the one handler's message and partial result are the only
    # divergence there is
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_handler = {}   # id of a node in an except DiffMathError: owner
        for fn in tree.body:
            for node in ast.walk(fn):
                if (isinstance(fn, ast.FunctionDef)
                        and isinstance(node, ast.ExceptHandler) and node.type
                        and "DiffMathError" in _bare_names(node.type)):
                    in_handler.update((id(n), (path.stem, fn.name))
                                      for n in ast.walk(node))
        sites += [in_handler.get(id(node), f"{path.stem}:{node.lineno}")
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "TrainingDiverged" in _bare_names(node.func)]
    assert sites == [("trainer", "fit")], sites


def test_fit_builds_its_outcome_at_one_site():
    # a finished fit and a diverged one hand over the same FitResult, built
    # where the history and weights are; TrainingDiverged holds only that
    sites, diverged_attrs = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "FitResult"):
                owner = [d.name for d in tree.body
                         if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                         and d.lineno <= node.lineno <= d.end_lineno]
                sites.append((path.stem, *owner))
            if (isinstance(node, ast.ClassDef)
                    and node.name == "TrainingDiverged"):
                diverged_attrs |= {
                    t.attr for n in ast.walk(node) if isinstance(n, ast.Assign)
                    for t in n.targets if isinstance(t, ast.Attribute)}
    assert sites == [("trainer", "fit")], sites
    assert diverged_attrs == {"result"}, diverged_attrs


# the single-precision dtype by each of its spellings
_SINGLE_NAMES = {"float32", "single", "SINGLE"}
_SINGLE_STRINGS = {"float32", "single", "f4", "<f4", "=f4"}


def test_float32_only_in_the_infonce_and_the_scratch():
    # the InfoNCE's pool, logits and softmax are the engine's only float32
    # arrays, held by the fit's scratch: weights, gradients, the teacher and
    # the selection scores stay float64. Elsewhere the dtype may only be
    # handed to np.finfo, to read its range.
    allowed = {("objective", "feature_consistency_loss"),
               ("diffmath", "Scratch")}
    outside, inside = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        spans = {(d.lineno, d.end_lineno): (path.stem, d.name)
                 for d in tree.body
                 if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                 and (path.stem, d.name) in allowed}
        range_reads = {id(n) for call in ast.walk(tree)
                       if isinstance(call, ast.Call)
                       and getattr(call.func, "attr", None) == "finfo"
                       for n in ast.walk(call)}
        for node in ast.walk(tree):
            single = (getattr(node, "attr", getattr(node, "id", None))
                      in _SINGLE_NAMES
                      or (isinstance(node, ast.Constant)
                          and node.value in _SINGLE_STRINGS))
            if not single or id(node) in range_reads:
                continue
            owner = [name for (a, b), name in spans.items()
                     if a <= node.lineno <= b]
            inside.update(owner)
            if not owner:
                outside.append(f"{path.stem}:{node.lineno}")
    assert outside == [], f"float32 outside the InfoNCE and Scratch: {outside}"
    assert inside == allowed, f"allowed but unused: {allowed - inside}"


# the calls that open, rename, delete or create a file or directory
_FILE_CALLS = {("", "open"), ("os", "replace"), ("os", "remove"),
               ("os", "makedirs")}


def test_only_the_harness_touches_files():
    # the engine is array code; the run's files, their formats and their
    # errors belong to the harness, which reads the config and metrics.csv
    # and writes every artifact
    outside, in_harness = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            call = ((getattr(func.value, "id", None), func.attr)
                    if isinstance(func, ast.Attribute)
                    else ("", getattr(func, "id", None)))
            if call not in _FILE_CALLS:
                continue
            if path.stem == "harness":
                in_harness += 1
            else:
                outside.append(f"{path.stem}:{node.lineno}")
    assert outside == [], f"file calls outside the harness: {outside}"
    assert in_harness, "the harness makes no file call"


# the open modes that write, append, create or update, and the calls that
# write a file without open
_WRITE_MODES = set("wax+")
_WRITE_CALLS = {("os", "open"), ("", "write_text"), ("", "write_bytes"),
                ("", "tofile"), ("np", "save"), ("np", "savez"),
                ("np", "savez_compressed"), ("np", "savetxt")}


def test_only_write_atomic_opens_a_file_for_writing():
    # artifacts are written atomically: every write goes to a sibling temp
    # file renamed over its target, so a reader never sees a prefix
    writers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(n): f"{path.stem}.{d.name}" for d in tree.body
                 if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                 for n in ast.walk(d)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            module = getattr(getattr(func, "value", None), "id", "")
            if name == "open" and not module:
                mode = next((kw.value for kw in node.keywords
                             if kw.arg == "mode"),
                            node.args[1] if len(node.args) > 1 else None)
                # a mode that is not a literal string may write
                text = "r" if mode is None else getattr(mode, "value", None)
                writes = not isinstance(text, str) or bool(_WRITE_MODES
                                                           & set(text))
            else:
                writes = ((module, name) in _WRITE_CALLS
                          or ("", name) in _WRITE_CALLS)
            if writes:
                writers.append(owner.get(id(node),
                                         f"{path.stem}:{node.lineno}"))
    assert writers == ["harness.write_atomic"], writers
