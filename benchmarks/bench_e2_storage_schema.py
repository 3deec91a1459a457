"""E2 — Table 1: the fixed three-class storage schema.

Emits the table and measures the per-record storage cost of each
storage class (sm_step, sm_material, material_set) — the overhead the
wrapper pays for running workflow on top of a plain object store.
"""

from __future__ import annotations

import pytest

from repro.labbase import TABLE_1, model
from repro.storage import ObjectStoreSM
from repro.storage.serializer import record_size
from repro.util.fmt import format_table

from _common import emit


def _sample_records() -> dict[str, dict]:
    material = model.make_material("tclone", "tc-000123", 17)
    model.update_recent(material, "quality", 17, 901, 0.93)
    model.update_recent(material, "read_length", 17, 901, 431)
    step = model.make_step(
        class_version=5,
        valid_time=17,
        results=[("quality", 0.93), ("read_length", 431), ("sequence", "ACGT" * 100)],
        involves=[77],
    )
    # a 40-member state: the directory of one leaf (see _SAMPLE_LEAF)
    material_set = model.make_material_set("state:waiting_for_sequencing")
    material_set["lows"], material_set["leaves"] = [0], [905]
    return {"sm_step": step, "sm_material": material, "material_set": material_set}


#: Not a storage class: the access structure that material_set points at.
_SAMPLE_LEAF = model.make_set_leaf(list(range(1000, 1040)))


def test_e2_table_1_and_record_sizes(benchmark):
    records = _sample_records()

    sm = ObjectStoreSM()

    def write_all():
        return [sm.allocate_write(record) for record in records.values()]

    benchmark(write_all)

    rows = [
        [name, f"{record_size(record):,} B"]
        for name, record in records.items()
    ]
    rows.append(["  + its 40-member leaf", f"{record_size(_SAMPLE_LEAF):,} B"])
    text = TABLE_1 + "\n\n" + format_table(
        ["storage class", "typical record size"], rows, align_right=(1,),
        title="Representative serialized record sizes",
    )
    emit("e2_storage_schema", text, payload={
        name: record_size(record) for name, record in records.items()
    })
    sm.close()


@pytest.mark.parametrize("name", ["sm_step", "sm_material", "material_set"])
def test_e2_per_class_write_cost(benchmark, name):
    """Write cost per storage class (steps dominate the stream)."""
    record = _sample_records()[name]
    sm = ObjectStoreSM()
    benchmark(lambda: sm.allocate_write(record))
    sm.close()
