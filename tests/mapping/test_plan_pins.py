"""TA+S plans pinned across commits by digest.

Every registered workload is mapped with the harness's ``ta+s`` knobs on
the simulation-scaled harpertown and dunnington, and on dunnington with
cores {1, 5, 6} removed (the pruned tree is the one that drives the
weighted clustering and targeted balancing path).  Each plan's rounds
are hashed and compared with the digests below, so any change to
tagging, clustering, balancing or scheduling output shows up here even
when the code that produced the old output is gone.  The digests do not
depend on whether numpy is importable.

To re-pin after a deliberate plan change, run this module as a script
from the repository root (``PYTHONPATH=src:. python
tests/mapping/test_plan_pins.py``) and record the quality delta.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.blocks.groups import IterationGroup
from repro.experiments import harness
from repro.pipeline import MappingPipeline
from repro.topology.machines import dunnington, harpertown
from repro.workloads.registry import WORKLOADS

MACHINES = {
    "harpertown": lambda: harness.sim_machine(harpertown()),
    "dunnington": lambda: harness.sim_machine(dunnington()),
    "dunnington-1-5-6": lambda: harness.sim_machine(dunnington().without_cores([1, 5, 6])),
}

PINS = {
    ("applu", "harpertown"): "b7472ebc447c5905084c36c9874c538d0bc517bdbd593934a255de15437ab619",
    ("applu", "dunnington"): "343a2da94375f07d3fbdcc8480be61f6eeac93a590335e7dfbd2c483d28a2b17",
    ("applu", "dunnington-1-5-6"): "b42dd2f41b4d9c8ebf273629ed526e29f79220c65abd17550ee5efde879d72fd",
    ("galgel", "harpertown"): "8c9f6ceb7550f42627af2364fe6b342c4de3ee915106ffa8e1b14b3a024a4736",
    ("galgel", "dunnington"): "476d5da3a129088f5740ec934edf8a914220dbab02993b1c2e07e0842de819b6",
    ("galgel", "dunnington-1-5-6"): "31f3167f6b6183aecd433b67c32725b7124b29150f8ed5a26f814580c87f13f7",
    ("equake", "harpertown"): "b7aa9ee6931a46aec4144f85c314bee30fc310937bebaa27fa96cb9ad8cda8df",
    ("equake", "dunnington"): "9d5e0c806507707874df96d6938327c38b4195ae4159f3b2707bc04e422fa617",
    ("equake", "dunnington-1-5-6"): "55e5098144c8af38e60b57b9851ec8fddab76693e1c9c7ecf2aaf3a334a8ee87",
    ("cg", "harpertown"): "f445e654861ad6f576d7bd29aade61ef31b8b912eb7ea4a435a6996741b72989",
    ("cg", "dunnington"): "22dcb592f8cf49702ae7e1eff4ddae44da95c3b24a551dc48b4b5d345a3e5775",
    ("cg", "dunnington-1-5-6"): "e936742533e361baff138206cd5f0e76ecccd9b358e3d97166f49be50dd8d897",
    ("sp", "harpertown"): "1a92630c916b948952471c5d56bfced1cb9969e2bd78251f94e6301d6dce3990",
    ("sp", "dunnington"): "9cedd771579c370d1d2340a44a4e1a67f0e85e3f6ff12e504321787b40dc40d3",
    ("sp", "dunnington-1-5-6"): "cc81042a3250dfe7426641521387ad1cff0c502843c522243b31222a8bb468b5",
    ("bodytrack", "harpertown"): "2c4d95dc776c49538c23f4560a95e5c8a10062ba120366516a173d67594bf25b",
    ("bodytrack", "dunnington"): "27ad6fd49ca7fc821f04306d4004f65251cdbf6adcc63e9fcc75cac2688dbb4b",
    ("bodytrack", "dunnington-1-5-6"): "9526687f405ba3bc8e5e041deac66ebfa34ec3284fb32df5d4fab5ba5115f046",
    ("facesim", "harpertown"): "c2f06334bd06f1bd4f920ae0d64c843d9b68d04e70ac5d058a63ef42e0b20f40",
    ("facesim", "dunnington"): "8fa6de963cc438dcc534593cf3dff0aea80b973b2087467eb8c9e85357e02616",
    ("facesim", "dunnington-1-5-6"): "34020bb621d0d69b6d6522fe5fff95215734d4cf21c6ef427520039942ff36ca",
    ("freqmine", "harpertown"): "d1bc905f9df8bcff46e3400cdc83e80280ed894d6e675270620fe1ca6a1b7417",
    ("freqmine", "dunnington"): "4097d3686c8cde954445da90815c43fb80d551d45520a449446de0f2dade859b",
    ("freqmine", "dunnington-1-5-6"): "028e88898b1dc15bdfff3d0b5fbcb290df9b7c98cf33caf23210368938785690",
    ("namd", "harpertown"): "d1bc905f9df8bcff46e3400cdc83e80280ed894d6e675270620fe1ca6a1b7417",
    ("namd", "dunnington"): "4097d3686c8cde954445da90815c43fb80d551d45520a449446de0f2dade859b",
    ("namd", "dunnington-1-5-6"): "028e88898b1dc15bdfff3d0b5fbcb290df9b7c98cf33caf23210368938785690",
    ("povray", "harpertown"): "fff5021e8fa46b346ef14a1148cf7e0be14656277e6b3eee7a06423a1ff4e32e",
    ("povray", "dunnington"): "f602aea597903001bd7041c7a2d15aef8df73c468f8528401dae66a42bcea8a7",
    ("povray", "dunnington-1-5-6"): "a281d25674eb4a3068be4821891c2e48d9d0507f687733eecbaed4a8cd0c8c4a",
    ("mesa", "harpertown"): "cf560fd521612352a3316f07f41929ab1f8c6de2aba5916e9f3d88098ec9590b",
    ("mesa", "dunnington"): "81e8b9d3703962d67b40756963e4b107689340c238969f762bf89bd32fe477bf",
    ("mesa", "dunnington-1-5-6"): "3a4bbd749fbf5ecc2ceb2d491ca1692b676db2e25e6b14bbb499c415129cfcd3",
    ("h264", "harpertown"): "0bbe447f9e7a76777b4e5ca73a915957454f54e6297428f03c1e7fa83ddb0b7d",
    ("h264", "dunnington"): "83c153eb29ad455687537042b028e3ebfc135991a684ba5132648fb9a295ce53",
    ("h264", "dunnington-1-5-6"): "a50582fe353aa336f8878ca094b15a755081574ef4181e77cf926cfd81b4f850",
    ("spmv_banded", "harpertown"): "99470a9457f4682957426ade54792b4bbafaf7518e56db1736057798923c01ec",
    ("spmv_banded", "dunnington"): "d2da004def45a38174f2923f549ccef01b1eafb326b571240301b12a56a734c9",
    ("spmv_banded", "dunnington-1-5-6"): "60fd177d8542aa213cb38aff30ffe4b81fc87734bd5dc8d2a3bc1e48536fdaeb",
    ("spmv_random", "harpertown"): "5302a91cdb6061e3337ca68870315e0a019ef125bbb5fb94996e5a533e90612a",
    ("spmv_random", "dunnington"): "97e4337e115ddc32486cc68f54a024ef9355ccc3746ab0a609fe36a6b8b5b577",
    ("spmv_random", "dunnington-1-5-6"): "19493751236abe3e6545a19eeedf0abdf61a60db054724da24e491e9c55cc555",
    ("mesh_edge", "harpertown"): "81b08ba4509794229fda30a403323f3243284cefdd0821cadb1500a8df26f225",
    ("mesh_edge", "dunnington"): "f9cf1a97da3e825d5d3addc841233268954a9e939a406042084efa0ca2f71f40",
    ("mesh_edge", "dunnington-1-5-6"): "fb37f4a8bb6c2a695fbd99afbb6a254f537759d41e6189bddb1fdaa857a7c2da",
    ("histogram", "harpertown"): "4c0c83a31e5a0d36191c8a2553113451aa43768bf4910f0329469d973e7d4d6e",
    ("histogram", "dunnington"): "d8449dbc6fbaf9e00f7a3e1630546083a5ef0df908bb2456e30ac41288ec089a",
    ("histogram", "dunnington-1-5-6"): "43876a98d27b8c8be133d2a8be9fcf991195038f87d32d78f990884498e84075",
    ("csr_sweep", "harpertown"): "6e9fdf9ed4c0002c809ba5af97f678ad5a2019027f795fd4ceb1fcf7c4c4c2a9",
    ("csr_sweep", "dunnington"): "44114ee43f1ec1272d8d7b08b0c315bf6c8cc85d500a15ae9bc38824c2729253",
    ("csr_sweep", "dunnington-1-5-6"): "adcab3d3aade3f1736cf79cecc631ce97b4299faffef0ece6b5cc3035008451a",
}


@lru_cache(maxsize=None)
def _machine(name: str):
    return MACHINES[name]()


def plan_digest(workload: str, machine: str) -> str:
    app = WORKLOADS[workload]
    IterationGroup.reset_idents()
    pipeline = MappingPipeline(_machine(machine), harness.scheme_knobs(app, "ta+s"))
    plan = pipeline.map_nest(app.program(), app.nest()).plan()
    return hashlib.sha256(repr(plan.rounds).encode()).hexdigest()


@pytest.mark.parametrize(
    "workload, machine",
    [(w, m) for w in WORKLOADS for m in MACHINES],
    ids=lambda value: value,
)
def test_plan_matches_pin(workload, machine):
    assert plan_digest(workload, machine) == PINS[workload, machine]


if __name__ == "__main__":
    for name in WORKLOADS:
        for machine_name in MACHINES:
            digest = plan_digest(name, machine_name)
            print(f'    ("{name}", "{machine_name}"): "{digest}",')
