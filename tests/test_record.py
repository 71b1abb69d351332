"""The typed config reader and writer shared by every config dataclass."""

import dataclasses
import json
import re
import typing

import pytest

from coca_tta.adaptation import LossMasks
from coca_tta.harness import ModelEntry, RunConfig
from coca_tta.record import Record, reader
from coca_tta.shiftgen import CorruptionSpec, SourceTask, StreamSpec
from test_harness import small_config
from test_models import small_spec
from test_shiftgen import mixture


def round_trip_config():
    cfg = small_config(collapse_threshold=0.25, lam_col=0.5)
    cfg.models[0].pretrain_epochs = 12
    return cfg


RECORDS = {
    "RunConfig": round_trip_config(),
    "ModelEntry": ModelEntry(spec=small_spec(hidden=(5, 3)), lr=0.02, pretrain_epochs=4),
    "ModelSpec": small_spec(hidden=(5, 3), norm="layernorm"),
    "SourceTask": mixture(C=5, dims=16, sep=3.5),
    "StreamSpec": StreamSpec(order="mixed_blocks", batch_size=16, total_samples=96),
    "CorruptionSpec": CorruptionSpec(kind="blur3x3", severity=2),
    "LossMasks": LossMasks(sa=False, mar=True, ckd=False),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_round_trip_through_json(name):
    record = RECORDS[name]
    doc = record.to_dict()
    back = type(record).from_dict(json.loads(json.dumps(doc)))
    assert back == record
    assert back.to_dict() == doc


def test_every_config_type_is_a_record():
    # a config dataclass that is not a Record would bypass the typed reader
    seen, todo = set(), [RunConfig]
    while todo:
        tp = todo.pop()
        if dataclasses.is_dataclass(tp) and tp not in seen:
            seen.add(tp)
            assert issubclass(tp, Record), tp
            todo.extend(typing.get_type_hints(tp).values())
        todo.extend(typing.get_args(tp))
    assert {t.__name__ for t in seen} == set(RECORDS)


def test_to_dict_writes_schema_tag_and_every_field():
    doc = RECORDS["RunConfig"].to_dict()
    assert list(doc) == ["schema"] + [f.name for f in dataclasses.fields(RunConfig)]
    assert doc["schema"] == 1
    assert doc["task"]["image_shape"] == [1, 8, 8]
    assert doc["models"][0]["spec"]["input_shape"] == [8]


def test_reader_takes_defaults_from_the_fields():
    doc = RECORDS["RunConfig"].to_dict()
    # only models and task are required; a config without stream reads the default
    minimal = {"models": doc["models"], "task": doc["task"]}
    cfg = RunConfig.from_dict(minimal)
    assert cfg.strategy == "coca" and cfg.tau_steps == 5 and cfg.corruption is None
    assert cfg.loss_masks == LossMasks()
    assert cfg.stream == StreamSpec()


def test_int_for_float_is_stored_as_float_and_integral_float_as_int():
    doc = RECORDS["RunConfig"].to_dict()
    cfg = RunConfig.from_dict({**doc, "lam_col": 1, "seed": 3.0})
    assert type(cfg.lam_col) is float and cfg.lam_col == 1.0
    assert type(cfg.seed) is int and cfg.seed == 3


def test_fields_are_validated_together():
    # 40 classes need dims >= 40; validating before dims is read would reject it
    task = SourceTask.from_dict({"kind": "gaussian_mixture", "num_classes": 40, "dims": 64})
    assert task.dims == 64


def test_from_dict_from_python_rejects_unknown_key():
    doc = {**RECORDS["RunConfig"].to_dict(), "learning_rate": 0.1}
    with pytest.raises(ValueError, match=re.escape("<root>: unknown keys ['learning_rate']")):
        RunConfig.from_dict(doc)


def _set(doc, path, value):
    """doc with the value at ``path`` (a tuple of keys and indices) replaced."""
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value


class _Deleted:
    """Marks a key to delete; its fixed repr keeps the test id stable across runs."""

    def __repr__(self):
        return "<deleted>"


_DELETE = _Deleted()

REJECTED = [
    # (path to the changed value, new value, path named in the error)
    (("bogus",), 1, "<root>: unknown keys ['bogus']"),
    (("task",), _DELETE, "<root>: missing required key 'task'"),
    (("models",), 5, "<root>.models: expected a list"),
    (("models",), None, "<root>.models: expected a list"),
    (("seed",), True, "<root>.seed: expected an integer"),
    (("n_per_class",), 2.9, "<root>.n_per_class: expected an integer"),
    (("n_per_class",), "60", "<root>.n_per_class: expected an integer"),
    (("lam_col",), "0.5", "<root>.lam_col: expected a number"),
    (("lam_col",), False, "<root>.lam_col: expected a number"),
    (("strategy",), 1, "<root>.strategy: expected a string"),
    (("models", 0, "dropout"), 0.5, "<root>.models[0]: unknown keys ['dropout']"),
    (("models", 1, "lr"), "0.01", "<root>.models[1].lr: expected a number"),
    (("models", 0, "pretrain_epochs"), 2.5, "<root>.models[0].pretrain_epochs: expected an integer"),
    (("models", 0, "pretrain_epochs"), None, "<root>.models[0].pretrain_epochs: expected an integer"),
    (("models", 0, "spec", "dropout"), 0.5, "<root>.models[0].spec: unknown keys ['dropout']"),
    (("models", 1, "spec", "num_classes"), 4.5, "<root>.models[1].spec.num_classes"),
    (("models", 0, "spec", "input_shape"), "8", "<root>.models[0].spec.input_shape: expected a list"),
    (("models", 0, "spec", "hidden_sizes", 1), True, "<root>.models[0].spec.hidden_sizes[1]"),
    (("task", "image_shape"), [8, 8], "<root>.task.image_shape: expected 3 items"),
    (("task", "center_separation"), None, "<root>.task.center_separation: expected a number"),
    (("stream",), None, "<root>.stream: expected an object"),
    (("stream", "batch_size"), 3.7, "<root>.stream.batch_size: expected an integer"),
    (("corruption",), {}, "<root>.corruption: missing required key 'kind'"),
    (("corruption",), [], "<root>.corruption: expected an object"),
    (("corruption", "severity"), 3.7, "<root>.corruption.severity: expected an integer"),
    (("corruption", "severity"), 9, "<root>.corruption: severity must be in 1..5"),
    (("loss_masks", "sa"), "false", "<root>.loss_masks.sa: expected true or false"),
    (("loss_masks", "sa"), 0, "<root>.loss_masks.sa: expected true or false"),
    (("loss_masks", "all"), True, "<root>.loss_masks: unknown keys ['all']"),
]


@pytest.mark.parametrize("path,value,message", REJECTED,
                         ids=[m.split(":")[0] + "=" + repr(v) for _, v, m in REJECTED])
def test_rejects_malformed_value(path, value, message):
    doc = json.loads(json.dumps(RECORDS["RunConfig"].to_dict()))
    if value is _DELETE:
        del doc[path[0]]
    else:
        _set(doc, path, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("tp,value", [(int, 1.5), (int, "1"), (int, True), (float, "nan"),
                                      (float, 10 ** 400), (bool, 1), (str, None),
                                      (list[int], (1, 2)), (tuple[int, ...], "12")])
def test_decode_rejects_wrong_json_type(tp, value):
    with pytest.raises(ValueError, match=re.escape("<x>: expected")):
        reader(tp)(value, "<x>")


@pytest.mark.parametrize("tp", [dict[str, int], set[int], complex, int | None],
                         ids=["dict", "set", "complex", "int_or_none"])
def test_reader_rejects_an_unsupported_type(tp):
    # config fields spell an optional value Optional[X]; X | None has no reader
    with pytest.raises(TypeError, match="no reader for config type"):
        reader(tp)
