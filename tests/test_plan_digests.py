"""Serial plans pinned by digest.

Each value is the SHA-256 of ``db.plan(sql).pretty()`` under the ``dp``,
``greedy`` and ``syntactic`` strategies (NUL-terminated, in that order),
computed on commit 69418cf — the last one whose planner still had the
intra-query-parallelism hooks.  Removing the hooks must change no serial
plan, row estimate or cost, so the digests must not move; a deliberate
planner or cost-model change re-pins them and says why.

Those 48 are the 1977 planner's: their fixtures are built with
``columnar=False`` (the paper's tuple-at-a-time engine, undiscounted
per-tuple CPU).  ``SERVING_DIGESTS`` pins the eight wholesale plans a
default ``Database`` serves with — the vectorized engine and its 0.25
CPU discount — computed on the commit that made that the default.
"""

import hashlib

import pytest

from repro import Database
from repro.optimizer import PlannerOptions
from repro.qa import RandomWorkload
from repro.qa.randomqueries import load_dataset
from repro.workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale

STRATEGIES = ("dp", "greedy", "syntactic")

WHOLESALE_DIGESTS = {
    "Q1_status_rollup":
        "65af6c356cf48c8049519be2f4fbd7b15582dc0a23a4100e50c81053f35d3dd5",
    "Q2_region_revenue":
        "9ddcdd2ba58b278cc097ac21d96f748775ba574c29f523b3dac0931a71b68281",
    "Q3_top_customers":
        "1549fa23194e1a077688c03c688df30a2f21458115d73e039e49af5c8ce47bfd",
    "Q4_line_revenue":
        "5511f51c374ec2793664cea7d2d165cccaa56715640ebdab8efe3b20b079a28d",
    "Q5_big_orders_by_segment":
        "7c6176e63bb93ea3bdfef8dcebb54275220725a59f133b7c975e841ead8ca13e",
    "Q6_five_way":
        "af67f4de5a7a5c0efe75a5ad5f371632a744eb5aa622ca833e5d1efa312a30b2",
    "Q7_selective_point":
        "2eac31e7d02e5a94b31e60f33d4f277d1a90b39e52be63759f3d60fb4d75fece",
    "Q8_priority_scan":
        "db25603d2bb0f8970bcb7c669c9ee211dfb7691cb3e5b233a9d0d6b4993210e6",
}

#: the same eight queries on the same data, planned by a default Database
SERVING_DIGESTS = {
    "Q1_status_rollup":
        "eb45a8142437dba423eeb47516b912a523672474687c8d3b4baa996e40531241",
    "Q2_region_revenue":
        "e15e99d475ac451eb39a9914115bf4e6b78354614b70a5ef8ae0422ff4671f0f",
    "Q3_top_customers":
        "024c5a601c0581a10f481d94d1e6e754e2c7b955aba3a92a288181c002ce6396",
    "Q4_line_revenue":
        "267a0606ec69c02950743857d94117d490dd22d3cd212fcbf79022304369936f",
    "Q5_big_orders_by_segment":
        "36e9c5e695cb90c1023d21219a3a56618706775f75167e04108548e3b181c51f",
    "Q6_five_way":
        "3c6ae09551081d76d1f2dc6ecb71d6dab95729cead27838cd402f42e6bef98ab",
    "Q7_selective_point":
        "2eac31e7d02e5a94b31e60f33d4f277d1a90b39e52be63759f3d60fb4d75fece",
    "Q8_priority_scan":
        "bfeb4eaae79d4642b35ee2d2e59465ea38e3f44a7b4d5c38c95708be3cc98093",
}

#: the tier-1 slice of tests/test_differential_matrix.py (seed 1977)
MATRIX_DIGESTS = [
    "5161920698bd1aa2425bab3170780964a1451d2ddc09278471416aaeab9ca187",
    "d38b9444a632fb70e61e05a8696ced1e6523689cd766e52b1098d146f2f989ec",
    "b007e61ff7555eae55a02e421b1a3305dac369b3a4dfff4e23b64ea502be7c19",
    "6a195315ff7e77734de29ec13a0aa50e2308daf5b087523ab2d382819247959f",
    "1c91c4d0e05fbd3b6ed33d04ddf082bc48ab9bf620a02985fe43740ed5a28e0f",
    "c11465724b780619f3c39485f39e9a8dc25cf48b6697fbe0d29d823dd7b217a6",
    "575e23fa878fc56f394c13eddc11f11708bb1f611c5e98d84c9e5c148b21083b",
    "6ce7343fe288109baf4917dde95a117a4b5c385d96c009363711e8039285311d",
    "455dc784d98852ccaccf80667fcdec874a06b96dfe0edf6e624a8caa136790f4",
    "53fb568737383eaaa00c725ca6b5dda35e8dc27f9631196c9106643db7344369",
    "a8a8915d8084e1554097905d5914392e0e42efd952e264d75e5ec54750b1842a",
    "b91c85cc25398f57d6f78ea16515b32ed2301108c130f5062bc5e77ecec7d94e",
    "52e84e5cb04f9e1dd4eaf72741ca3357bd8c4a1461603318f71d69ae7a633ac6",
    "ec19cd56829fdce17cb04d974aa6066b9e44613b2e4f61f00817118bea1487f0",
    "dd1b4cbf68c4f5020f39393436883a9c2e9c7f8c658b8c2fe9518f564cd12f5b",
    "8817df1976e9486cb766c4ed3e20f6a411639d429f1415468700ffc2616ec87f",
    "87be677f9e676b3e4c16a6a55887007e348e54d40fd7b21acd63a3a164b38fda",
    "ee0b8f7ca5fc6ac1def882ccad2a412a66830a8222a630f2a9592323dc6a956b",
    "81eb36e9b5439f94dc4a641dc559274c4737eb52b131acffa3b77c04f1047b82",
    "dab634990456ade4fa0e12499741ceda5904bff8863b9cd86623bebe1cdcf073",
    "81f02a2e3e53e98859468bb13abeaf426ed9fc8e34943cd4ed14d1b5dc77ef90",
    "635a61f7d918df1aed79ac94c4b5fa89266496b4b1b536e28fd1d163a6ed8165",
    "d3efddf211ce63788bbc1473a9fb2fe6631f103928d602be05a71f42a6920a5a",
    "fb30fb79cec2f03d88315cad1be1d79e2590b7f484b3deedc9f8b76a0df8b5dc",
    "936025953025853d5a0635101445022a7a64903d7c4240daab49dacb01d1f14b",
    "e424a8693be6e559d4a7e9786e372548394611d8898e7ac72bcc13eb80b8d592",
    "b5e222c94819bde9004b9027ecb72f1d9a033ceccdecd030c4007d198466ef98",
    "b31f31c22f2eb766589b60c0f0152c6bf6eae99cbb3fd0380719be07ba25da97",
    "d728327d55f759e358bec8f1309700028f92a47a43522a81ae353c9ed890b35e",
    "c2831f8ad79329e239d301a6e7249a8b811e4c68ec69c882fcb70b57a15a3fbd",
    "673fc73d1db8ccb42359dd2299031cee6e3a0bd3ed69b56959d72a4c297fa0b9",
    "ef13fa3ea1a99b7d069a38f7f10ea253c936aff4d48817713dce9058adefbd5f",
    "d6237c7802b12233fc21e86ae0d1a5ff565bd9e7a172ae05fcb2b321dbac2c4c",
    "599c9f7fbfec7507faff928cadaa77b86dee7edeb3c227ebf0b38812a215884b",
    "15af76040801d409a6d2c92fee7bd9c67f5c4a6b77f36aec5a37b1e4902711e4",
    "b5faf5b3f74c7fe446a121ab2f77685ef2da25180ce751bd4cbe34d7206bfb97",
    "2b6dc290cc9f55b92bb6a6a6e123a56d5e424c1bb8aba0ee4c310e4a726b1b40",
    "e91af54b1d27b55ea63f37ac898e60eda58d3e66e7c846de925343e6bd863024",
    "92cd79c8b4fdc5877789e10636ee33dfd5efe430e7fab0df8a61e017fff4a5c2",
    "3a72931362091796eab30e2c6f1c2c5f13096ede925aa27ee3ebb30010b4b896",
]


def plans_digest(db, sql):
    digest = hashlib.sha256()
    plans = []
    for strategy in STRATEGIES:
        db.options = PlannerOptions(strategy=strategy)
        text = db.plan(sql).pretty()
        plans.append(f"-- {strategy}\n{text}")
        digest.update(text.encode() + b"\0")
    db.options = PlannerOptions()
    return digest.hexdigest(), "\n".join(plans)


@pytest.fixture(scope="module")
def wholesale():
    db = Database(buffer_pages=96, work_mem_pages=8, columnar=False)
    load_wholesale(db, WholesaleScale.tiny(), seed=13)
    return db


@pytest.fixture(scope="module")
def serving():
    db = Database(buffer_pages=96, work_mem_pages=8)
    load_wholesale(db, WholesaleScale.tiny(), seed=13)
    return db


@pytest.fixture(scope="module")
def matrix():
    workload = RandomWorkload(1977)
    db = Database(buffer_pages=64, work_mem_pages=4, columnar=False)
    load_dataset(db, workload.dataset())
    return db, workload


@pytest.mark.parametrize("name", sorted(WHOLESALE_QUERIES))
def test_wholesale_plans_unchanged(wholesale, name):
    got, plans = plans_digest(wholesale, WHOLESALE_QUERIES[name])
    assert got == WHOLESALE_DIGESTS[name], plans


@pytest.mark.parametrize("name", sorted(WHOLESALE_QUERIES))
def test_serving_default_wholesale_plans_unchanged(serving, name):
    got, plans = plans_digest(serving, WHOLESALE_QUERIES[name])
    assert got == SERVING_DIGESTS[name], plans


@pytest.mark.parametrize("index", range(40))
def test_matrix_slice_plans_unchanged(matrix, index):
    db, workload = matrix
    sql = workload.case(index).sql
    got, plans = plans_digest(db, sql)
    assert got == MATRIX_DIGESTS[index], f"{sql}\n{plans}"


@pytest.mark.parametrize("source", ["wholesale", "serving", "matrix"])
def test_executed_plans_render_like_cold_plans(
    wholesale, serving, matrix, source
):
    """The plan a statement runs with — planned from the literal-lifted
    statement on a plan-cache miss, bound from the template on a hit —
    is the plan ``db.plan`` gives the same text."""
    if source != "matrix":
        db = wholesale if source == "wholesale" else serving
        texts = [WHOLESALE_QUERIES[n] for n in sorted(WHOLESALE_QUERIES)]
    else:
        db, workload = matrix
        texts = [workload.case(index).sql for index in range(40)]
    for sql in texts:
        cold = db.plan(sql).pretty()
        hits = db.plan_cache.stats.hits
        assert db.query(sql).plan.pretty() == cold, sql
        assert db.query(sql).plan.pretty() == cold, sql
        assert db.plan_cache.stats.hits > hits, sql
