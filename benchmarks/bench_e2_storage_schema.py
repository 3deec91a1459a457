"""E2 — Table 1: the fixed three-class storage schema.

Emits the table and measures the per-record storage cost of each
storage class (sm_step, sm_material, material_set) — the overhead the
wrapper pays for running workflow on top of a plain object store.  A
size is the bytes the store writes for the record (its codec's
encoding, ``bytes_written``), not a size computed beside the store.
"""

from __future__ import annotations

import pytest

from repro.labbase import TABLE_1, model
from repro.storage import ObjectStoreSM
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


def _stored_bytes(record: dict) -> int:
    """Bytes a fresh store writes for ``record``: ``bytes_written``
    across one ``allocate_write``."""
    sm = ObjectStoreSM()
    before = sm.stats.bytes_written
    sm.allocate_write(record)
    written = sm.stats.bytes_written - before
    sm.close()
    return written


def test_e2_table_1_and_stored_sizes(benchmark):
    records = _sample_records()
    sizes = {name: _stored_bytes(record) for name, record in records.items()}
    leaf_size = _stored_bytes(_SAMPLE_LEAF)

    sm = ObjectStoreSM()

    def write_all():
        return [sm.allocate_write(record) for record in records.values()]

    benchmark(write_all)

    rows = [[name, f"{size:,} B"] for name, size in sizes.items()]
    rows.append(["  + its 40-member leaf", f"{leaf_size:,} B"])
    text = TABLE_1 + "\n\n" + format_table(
        ["storage class", "typical record size"], rows, align_right=(1,),
        title="Representative stored record sizes",
    )
    emit("e2_storage_schema", text, payload=sizes)
    sm.close()

    # The printed sizes are what one store writes for the records
    # together, and the hot record is smaller than the cold one
    # (Section 1, point 4: most-recent data is small and hot).
    together = ObjectStoreSM()
    before = together.stats.bytes_written
    for record in [*records.values(), _SAMPLE_LEAF]:
        together.allocate_write(record)
    assert together.stats.bytes_written - before == sum(sizes.values()) + leaf_size
    together.close()
    assert sizes["sm_material"] < sizes["sm_step"]


@pytest.mark.parametrize("name", ["sm_step", "sm_material", "material_set"])
def test_e2_per_class_write_cost(benchmark, name):
    """Write cost per storage class (steps dominate the stream)."""
    record = _sample_records()[name]
    sm = ObjectStoreSM()
    benchmark(lambda: sm.allocate_write(record))
    sm.close()
