"""Census of the settable values in ``src/stressmon``.

A settable value is a function parameter with a default or a dataclass
field with a default, found in the source's syntax tree.  The list is
frozen below, so a change that adds or removes a setting shows it in this
file's diff.  A setting earns its place when a caller needs a value other
than the default; a value that every caller leaves alone is a constant.
"""
import ast
import pathlib

import stressmon

SETTABLE = frozenset({
    "stressmon.cli:write_manifest(config_path)",
    "stressmon.cli:write_manifest(counts)",
    "stressmon.cli:featurize_directory(zones_path)",
    "stressmon.cli:featurize_directory(counts)",
    "stressmon.cli:main(argv)",
    "stressmon.context:ContextSchema.zones",
    "stressmon.context:context_record(arrival_ms)",
    "stressmon.dataset:nearest_rows(exclude)",
    "stressmon.dataset:KnnImputer.__init__(k)",
    "stressmon.dataset:KnnImputer.__init__(weighting)",
    "stressmon.dataset:KnnImputer.transform(exclude)",
    "stressmon.dataset:knn_impute(k)",
    "stressmon.dataset:knn_impute(weighting)",
    "stressmon.learn.evaluate:ModelSpec.kind",
    "stressmon.learn.evaluate:ModelSpec.depth",
    "stressmon.learn.evaluate:ModelSpec.k",
    "stressmon.learn.evaluate:ModelSpec.n_trees",
    "stressmon.learn.evaluate:ModelSpec.rounds",
    "stressmon.learn.evaluate:ModelSpec.learning_rate",
    "stressmon.learn.evaluate:ModelSpec.select_top",
    "stressmon.learn.evaluate:EvalReport.folds",
    "stressmon.learn.evaluate:fit_model(feature_names)",
    "stressmon.learn.evaluate:grouped_cv(folds)",
    "stressmon.learn.evaluate:grouped_cv(seed)",
    "stressmon.learn.evaluate:personalization_eval(seed)",
    "stressmon.learn.knn:train_knn(feature_names)",
    "stressmon.learn.trees:TreeNode.feature_index",
    "stressmon.learn.trees:TreeNode.threshold",
    "stressmon.learn.trees:TreeNode.left",
    "stressmon.learn.trees:TreeNode.right",
    "stressmon.learn.trees:TreeNode.impurity_decrease",
    "stressmon.learn.trees:TreeNode.sample_fraction",
    "stressmon.learn.trees:TreeNode.class_counts",
    "stressmon.learn.trees:TreeNode.value",
    "stressmon.learn.trees:TreeEnsembleModel.base_score",
    "stressmon.learn.trees:TreeEnsembleModel.degenerate",
    "stressmon.learn.trees:train_random_forest(n_trees)",
    "stressmon.learn.trees:train_random_forest(seed)",
    "stressmon.learn.trees:train_random_forest(feature_names)",
    "stressmon.learn.trees:train_boosted(learning_rate)",
    "stressmon.learn.trees:train_boosted(seed)",
    "stressmon.learn.trees:train_boosted(feature_names)",
    "stressmon.learn.trees:select_top_features(seed)",
    "stressmon.sema:SemaState.tz_offset_ms",
    "stressmon.sema:SemaState.day_anchor_ms",
    "stressmon.sema:SemaState.first_wear_time_ms",
    "stressmon.sema:SemaState.prompts_sent_today",
    "stressmon.sema:SemaState.last_prompt_time_ms",
    "stressmon.sema:local_day_start(tz_offset_ms)",
    "stressmon.signals:RawWindow.ppg",
    "stressmon.signals:RawWindow.context",
    "stressmon.signals:burst_record(arrival_ms)",
    "stressmon.sim:NetworkParams.wifi_outages_ms",
    "stressmon.sim:ParticipantParams.baseline_bpm_range",
    "stressmon.sim:ParticipantParams.stress_bpm_delta",
    "stressmon.sim:ParticipantParams.ema_compliance",
    "stressmon.sim:SimConfig.n_users",
    "stressmon.sim:SimConfig.days",
    "stressmon.sim:SimConfig.seed",
    "stressmon.sim:SimConfig.tz_offset_ms",
    "stressmon.sim:SimConfig.network",
    "stressmon.sim:SimConfig.participants",
    "stressmon.sim:SimConfig.per_user",
    "stressmon.sim:SimConfig.zones",
    "stressmon.sim:synth_ppg(start_time_ms)",
    "stressmon.sim:synth_ppg(pulse_width_s)",
})


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settable(node, module, scope=""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(child, "name", "<lambda>")
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            yield from (f"{module}:{scope}{name}({a.arg})" for a in defaulted)
            yield from _settable(child, module, f"{scope}{name}.")
        elif isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                yield from (f"{module}:{scope}{child.name}.{st.target.id}"
                            for st in child.body
                            if isinstance(st, ast.AnnAssign) and st.value is not None)
            yield from _settable(child, module, f"{scope}{child.name}.")
        else:
            yield from _settable(child, module, scope)


def census():
    package = pathlib.Path(stressmon.__file__).parent
    names = []
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        names.extend(_settable(ast.parse(path.read_text(encoding="utf-8")), module))
    return names


def test_settable_values_match_the_frozen_census():
    names = census()
    assert len(names) == len(set(names))
    assert set(names) - SETTABLE == set(), "new settings: add them above, or make them constants"
    assert SETTABLE - set(names) == set(), "settings gone: remove them above"
