"""Registry plan identity: every served plan is pinned byte for byte.

The width search reads width-invariant edge prices and graph topology
from a table built once per compile. This module pins the SHA-256 of
``plan_to_dict`` for all 66 plans the registry serves (22 workloads at
16, 32 and 64 PEs, ``dp`` allocator), so any change to how a plan is
computed that changes what is computed shows up as a named digest.
"""

import pytest

from repro.cnn import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig
from tests.golden.regen import plan_digest

PES = (16, 32, 64)

#: ``"<workload>@<pes>"`` -> SHA-256 of the canonical plan JSON.
PLAN_DIGESTS = {
    "alexnet@16": "96e280d3bfb1f99ed5ce84bf6a1acd080206806791896f4c05f7f16ebff907dc",
    "alexnet@32": "f0a668c57c404b1275c6b962211aaf4e6663ebb53f67fb9cdf542713c5422768",
    "alexnet@64": "d4cec244090a04f95ff3747a58cb8bf39d13daab02ba29eed2fde6953212f581",
    "car@16": "359988e8d06d2ed70816fc96be343c2647c59d3614ae67b5ffa4313a8759d188",
    "car@32": "91ddc99d7bc35f9babe36e76cd509f8eb5b5e853fbb5b184462558fd271379ac",
    "car@64": "f14fe7f0d1f3431ea26dcb9c9e81b63ae8b354463f1dedda4d4f5cf0a42b7e12",
    "cat@16": "69ff61cedda7dd6f1bfa89f03bff724d22b5cd0758f7169cc38c9a90ea3787e9",
    "cat@32": "709b74b976a90e8c3189dbd698debbc6cd02c9b38e9d1ea2ff2d9e9ef6018340",
    "cat@64": "4b99053cde6cc5003a0411a791ef3863ad8e01e1d4b9e489966f3e23f1f30133",
    "character-1@16": "bccb80afc40f170f8e38a624f56cfbd360e98bf1666662da5d298b139bbf9d52",
    "character-1@32": "bc4aff7a6e1938861a392e0eb97647c18580fbe32fb15486c78eb0d83f45e3dd",
    "character-1@64": "c51e9aa831369df58d0f7ca60ecb071964f59202de7128de6bc5b7ecde48596a",
    "character-2@16": "b0474c6cac000f0de0a531b958b73a7e54d6f07cad2decb8cc530e75011190dc",
    "character-2@32": "7b3c83a63d1851a13232467d1265d33cb5200939204d4661c03cba2933617a59",
    "character-2@64": "19818038400a7ef958925f8d70a24187533bd7835dbcae9846cc748eeaeb8663",
    "flower@16": "faf6e3966bf225c9ef52225b8673422823c6ebfcefb25cfbf223f0571738619f",
    "flower@32": "701d1a0b3293c9d171b02cb8d49892426e44d47a669d19039508ff0254f9abfa",
    "flower@64": "028929d42864714ae91d69ed107c7bcb54dfdc67355285e0dcb85143da6aa75c",
    "googlenet@16": "48bf785008d390e500c3bda674771ef61c69d270e177989df95e0ae382dd4d46",
    "googlenet@32": "25ed82fea4a81ecc956f689702b7fad89db59d789c00f728f4767cb52eab98ff",
    "googlenet@64": "44471de9e6292ea6b7c25640a8c2beb8347cbbbf06c09fd195f484abef673776",
    "googlenet-small@16": "8546fd0ac73759597486923fa8172caf06200765bc14fb8f2142bdab619b2dad",
    "googlenet-small@32": "caa4f2dfe5ed1f6e4828d448271761d36f4ca66e199298c10263afdd6c322e51",
    "googlenet-small@64": "9da76d12f881a608b2ab9a66c454395f286e96961329dd8086bfe4bce93856f9",
    "image-compress@16": "0ca6d2b583dc55b5377d1242e57ce7259ba6dbba807da2955c13864f0b102f20",
    "image-compress@32": "f0c6a5475f8f09f45a42dbfe3b7d217ea0ef8cac92a495d06abd4c193095b546",
    "image-compress@64": "6bfa96bbda93833c3bb23e4992b2e099fced9eb1091b15d56ae3be3f6421d079",
    "lenet5@16": "454c5d2b2942c07d267b7c73ff5c1798cfb20f1b590f9703c62d4a70f6385faa",
    "lenet5@32": "5dfb048a249854a3a50d8b6e7fbe8374b06c383bdf6751d3a7b83fa131a25cf0",
    "lenet5@64": "83fbf0caa31d2a795e5a9160f3b38c36f1db02c45b0236581650d8fa1f1b7cce",
    "protein@16": "348ece7953ef2f61c013bd48694562ff1ef3da11e8daf45f29c4e801f9c34a19",
    "protein@32": "2c5f726f4d8049fc1583e12026fe85102c1f6d1ab1c44e35e7805b35c3f2c2b2",
    "protein@64": "a69815cc747e0705d2bd560249e509bd2c886bd4909a6b3c467f4717d7ad5d64",
    "randwired-ba@16": "a3c1f309db84f5c50ca359fe81b196e259d327e6d62485d1499d79e4851afc02",
    "randwired-ba@32": "bb432e66d6b07ed442e88ce808a977242bc2a2c37dba6678d6a033379e4f099e",
    "randwired-ba@64": "554831ec9aa2f8fb226b2ea378d918d7112ecade2a210978ee9f954f7b0d5c1a",
    "randwired-ba-64@16": "aac511694efd7eacd99aaf89f8380fff55f3f124e7f211aa97e01751652d7725",
    "randwired-ba-64@32": "aef2b788b2a81ebef6f330c4ad3c0a19b023464e7066adffd2c97ec9a610d9a5",
    "randwired-ba-64@64": "e237780bbb6ce4209559d34e5779bc43692b973c8c139862a3be7729f9ea7389",
    "randwired-er@16": "d2f67d7614ce094cbf3d9894212fe3dea7a3ae1ea9f7d3bfbe73ed63902b4538",
    "randwired-er@32": "1a87967565fa8873157fa2e96c33a1028a35f392d41ce4406a43b1f4bae26c2a",
    "randwired-er@64": "7f799b6b4454135e07f975e98feeb787713adfd8f1db528d8949baff5ced5c16",
    "randwired-er-64@16": "07aac1c5117984f67bc1e07129c05111dec5d373ba7654dc4a9067f657dea408",
    "randwired-er-64@32": "2270f0e1e9bbdce44598b5bc174612f12953e43d448096f4c58eb67ee04aac5b",
    "randwired-er-64@64": "3d9f39b75bf17fcc82e720b63c4a4696e416007f7cb393b20d7fc1ca65e3d7db",
    "randwired-ws@16": "6330737a706ec4d0bdf9ae56f4e979fc5687b266f6d22fa8d72ee868b6b8ae5d",
    "randwired-ws@32": "4fe4ee49bbdb6c4679c4f92210efc3339da666889cd32796ecc2f489a326f6f5",
    "randwired-ws@64": "9de0e070bfe068c609468777305242fb46fe21af7962706221e93c53a8e47711",
    "shortest-path@16": "e89e0441f14c7d1b47994bda626373f01604d569c0517e771eacb638b3ba4556",
    "shortest-path@32": "53d40a1154db20856a165a6b8c1644a71b79a899b1b795ceef325c26178527ba",
    "shortest-path@64": "e443ae043ab8ead215b9d475301f7684a57771fb4b6d996d0dfc24ded6b05c67",
    "speech-1@16": "73e523bae3c3c9e386954ecc178194b4eec5875f22f5fe799af81e807ad07efa",
    "speech-1@32": "50d5e2adadce93107da5499724de3b92c37db175ff0dbcd019cbcb0cc6cdd42f",
    "speech-1@64": "c0eecb55bffd4f9f7f5b1bc29c13729997da1ee1d7001372612e6f154f761176",
    "speech-2@16": "078450b15114936c7a0d5090b79790d73fbbb745f06342b97e77a3cd3d802580",
    "speech-2@32": "c0bccb7713013d73f778d11dcb7f69eb9640fd9ddcf3590042ecf58098f095c3",
    "speech-2@64": "44a625b48773bc8bce23b900047368450358c35655ad09d2e8069a8e38038391",
    "stock-predict@16": "4dffb08939a6e75900aa9e6dcb768b691588af6fa65fb6642977b645f690e8ed",
    "stock-predict@32": "00c99ba221e7a447ffc5ad8c19e48983db1e6f8dd2f039325cdef9bb8f6415a6",
    "stock-predict@64": "aa6d603ceaeeebb2a624c20f7a7e47846c4538f7b763c90b1c19532c50811d4b",
    "string-matching@16": "17eba9845a31133065de40133f1d3acabce3dfa5cc926bc8bbe9039c55efa5d2",
    "string-matching@32": "d5302205ceeb1a46a1aa9c45c886fdc7d53a948f82e6ec4ccb7f7d85a7af2736",
    "string-matching@64": "8f21e113d41196653ac07a126036ea91bdc25d03e0e0d8aa71a200edf47b8a5e",
    "vgg16@16": "e8aab077beafdc2cb27d4af4172d0655409538f258431b3ce91fdd23fd37fed0",
    "vgg16@32": "2a8eb233d337cbbbd75fb4337a08f5aa792ae4bdca72f3e9e0dd656c14495ff1",
    "vgg16@64": "0a248705613b96ad57827bad20128ef7babca696e2f39086093fe675fbf12b4f",
}


@pytest.fixture(scope="module")
def graphs():
    return {name: load_workload(name) for name in WORKLOADS}


def test_pins_cover_the_whole_registry():
    assert set(PLAN_DIGESTS) == {
        f"{name}@{pes}" for name in WORKLOADS for pes in PES
    }


@pytest.mark.parametrize("pes", PES)
def test_registry_plans_unchanged(graphs, pes):
    config = PimConfig(num_pes=pes)
    changed = []
    for name, graph in graphs.items():
        plan = ParaConv(config, allocator_name="dp").run(graph)
        if plan_digest(plan) != PLAN_DIGESTS[f"{name}@{pes}"]:
            changed.append(name)
    assert not changed, f"plans changed at {pes} PEs: {sorted(changed)}"


@pytest.mark.parametrize("name", ["cat", "protein", "vgg16"])
def test_exhaustive_search_serves_the_pinned_plan(graphs, name):
    config = PimConfig(num_pes=64)
    exhaustive = ParaConv(config, allocator_name="dp", prune_widths=False)
    plan = exhaustive.run(graphs[name])
    assert plan.compile_stats.num_pruned == 0
    assert plan_digest(plan) == PLAN_DIGESTS[f"{name}@64"]
