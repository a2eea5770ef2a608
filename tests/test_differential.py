"""A committed differential: the outputs of the F_n walk and of the X_j
kernel, pinned by digest.

Every certificate with n <= 6, written as ``check-involution
--emit-certificate`` writes it, every field of the fact reports of
``generic_system(n)``, n <= 6, rendered one per line, and every sum of
``all_big_x`` for ``generic_system(n)``, n <= 7, and for seeded integer and
p/q systems, n <= 6, rendered one per line, and the same sums from
``big_x(sys, j)`` one j at a time, and the numerators, denominator and
quotients of ``solve`` on seeded nonsingular integer and p/q systems,
n <= 9, are hashed with SHA-256 and compared with the committed digests
below.  A change to the walk, the
writer, the auditor or the kernel must leave them all as they are; one
that alters an output on purpose must edit a digest here, where the diff
shows it.  The n = 4 and n = 5
digests must also equal the older pins: ``CERT_N4_SHA256`` in
test_involution.py and ``CERT_SHA256`` in perfbench/workloads.py, read from
their source.  The n = 7 certificates take too long for this suite; CI
checks them against tests/cert_n7.sha256, and the n = 8 generic sums
against tests/kernel_n8.sha256.
"""

import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

from cramerkit import (
    all_big_x,
    bareiss_det,
    big_x,
    build_certificate,
    certificate_to_dict,
    check_fact1,
    check_fact2,
    generic_system,
    solve,
)
from cramerkit.algebra import render_scalar

from _support import random_fraction_system, random_int_system

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of the certificate of (n, i) as the CLI writes it: indent=2 and a
# final newline
CERT_SHA256 = {
    (1, 1): "bd608c95a6d5156d41a4eb4ac5fafa5de7bf0850561285fea2776f9a8a0fd659",
    (2, 1): "71b8d46ff5d4bdee1fed1258647ba5e8d7cdfb9aa419a04442be5b7b388bd3c6",
    (2, 2): "75e3f0b6b5d96a2f47689e09ac83f049457e584d717676e93122d76be3f294fd",
    (3, 1): "f340c1a141b83a3ba5ccbce9fdfed6c5b8368634b5a5e7c7b52bd347916deaa8",
    (3, 2): "e66ce50d758901e8d1d3119cb1b1a77eed2e4d8752d4605c64761e614039cac4",
    (3, 3): "726e374dbd3428153d9faa53f814124d3f9ac14661ab76e02765d3522edece39",
    (4, 1): "3b82e97ce5a9f4c1744dd47f17dddd38dc392dea3c50ade17541e6599babf587",
    (4, 2): "971d6b9fa392d4562d4302c0e4bd504e2fcbdd5e19a5915229d787de2e609f72",
    (4, 3): "ace3577e5c5ee914591bbcbee2a15abc88741c23c5d4fd48550265c1d0955b30",
    (4, 4): "f042e8263e6b6ad452756a8dd852a01b04b1cc4df172ab9ac157880cc0f10789",
    (5, 1): "d317351c0cf9f9ded3f5f6cff40c95e3a7c4ed2284055ccb1bae93f8be23f73e",
    (5, 2): "16afc2095bbcf54f7265c26c1f041a5271bd091ba84ee4e918d5d52dd0948ff9",
    (5, 3): "6269502765a60c592f931f3752a630d66d37ca1679be949f83d8d853c0ae209e",
    (5, 4): "224a3972ec00142089743382a54236e196a7ba4d32064116733c9f25f0ee12e0",
    (5, 5): "58bdb3403da889ba1fcfe9a46d5dc62ed6ebbe8988197b6f0503b16a5a499e32",
    (6, 1): "481dc8e0f6e4eb963ae66a02f09fecc92bb194729e9b592ab9cf6bc0f817c64d",
    (6, 2): "bc1d1439b79be861525ae9562725679391229b07476d3d23b3b88554828324b0",
    (6, 3): "a2dfdee4afc597d067674c4caac46a4118601f7e40e76b24d14b21d32fe4deab",
    (6, 4): "6978982626c7374bfb79076bc324bf0c3555f5f2bc01e484b22116f6512dffad",
    (6, 5): "46fc2defdbbc31e49f3bae1960457814dc33ec81d76b6a59f28082c348dc39df",
    (6, 6): "41425bc7589b8b5d0f12f12c46bc9965aa4fae1bd100f1abc28ed91f2a66521e",
}

# SHA-256 of the Fact1Report and Fact2Report of (n, i), one "Type.field=text"
# line per field, each value rendered with render_scalar
REPORT_SHA256 = {
    (1, 1): "8e18ff3fa13fc02743bf46975778fc87cd2ba96911331ac93c28c4dca3ddf1e1",
    (2, 1): "d892ef5288ecce51afcb2f0c0c672f5c349f604b26da56cd4a4f3f7ce8e6133c",
    (2, 2): "5adff1acf4fda3b0ba6073e55c17521288bf5ffa8b707cb0fd73e2bc81c39e4a",
    (3, 1): "91cc94de5fb06683bb1e68bdeecf1f3cdd55321f74a7055916ac81f63420f8e4",
    (3, 2): "269e6df447783d79d7d8cf9c374428015553d3c155a204048f9b0626607b119f",
    (3, 3): "073c3ae68a6e38200dde641dee8ad5d7066ebd00889840c93300e861358f719f",
    (4, 1): "141fb3b231508a9b8b0b7518afd60a1efd7e2d42c5c622da6798af10baf63f27",
    (4, 2): "cf8ffd82f26dbc79b82105660b0bfbc5cd879503c1bd9bf2fa56880e67a2115e",
    (4, 3): "98aa4c4384d693e99822b15cf7f9aa2f027797516d9e8a028baa297bb6cde543",
    (4, 4): "c516f70718e56c8e9227d820dcc4492b3bf04329b97f47af84f0a732b5a8fea0",
    (5, 1): "ef3a78e4f268580349fbf37fbdd40a1e6cef0f83d8fafb38aef9e6712111fbd9",
    (5, 2): "909a14f31b10a0394cc77384096220f3a13dd2a7f3db261301f16732bb74b0d7",
    (5, 3): "17180b56810a9f55cab0a9c583d10921ad7de20bf4b9c06342f83ac06de7b655",
    (5, 4): "3c67eb033938e020d11e1fbd2ded75070ae6b950c2c09d69b7685a6e0a988e0d",
    (5, 5): "895c854577e989e19219fc6336dc9878587c512772b6e8effd1f70dcc3877085",
    (6, 1): "d79b73cbb2c5a39a8d799dc831412138186572ad91eee771415d0f41900bd883",
    (6, 2): "31ef2fba6f08334407305a4ad26fa743528c370b34b7b7ceb58154a0383feb77",
    (6, 3): "c0fe8223a050499297cde50733dfddfd31faf166a41e138b6a986fe5c984a26c",
    (6, 4): "b5d2a20c34087dcca54a897d2424af926c583d6fe11b588a0b9aec16cd91a235",
    (6, 5): "6e4ad0092a8a5b94f52a5bbc6b62616342e8ad79070845217dc183232f81762e",
    (6, 6): "ee368684f34b2f97eb70693b555eeef3b65d8055d07c9b9bc00966beee562219",
}

# SHA-256 of [X_0, ..., X_n] from all_big_x, one render_scalar line per sum,
# and of the same list from n + 1 calls of big_x(sys, j); the int and p/q
# systems of size n are drawn from random.Random(1900 + n)
KERNEL_SHA256 = {
    ("generic", 1): "c9123ae43920b2dd5fcf31738ea0e790bb8312b84e5e417d4499d48cc6cc08b8",
    ("generic", 2): "dd4e9a492ceb47e0e30c70d8df6ae7e006eb8215d4c7a7aba920f23454b8ffb4",
    ("generic", 3): "b23666fff72b0be729730a37abb1a4ba06b42aac99bf90102f97c47fcfa53a39",
    ("generic", 4): "9de3f2faf38c915efd14a2939eab071b8ac6e1677736e5cf5affee2795ea45a6",
    ("generic", 5): "1d38bbfba3f873de852b884bb1bd01fea7b000066337629d4a3791707fd912fc",
    ("generic", 6): "4846ceda5b1d2803a738521d112783b9792ec89687a301142a348c52f14b8145",
    ("generic", 7): "c3fa1d68f821c8449b8d4364813c1fc4824a570494f72c19215b59e4f6fe18b3",
    ("int", 1): "bf515708924695d498f61fb24331181ba4278e2ae0a2ffda192df32ebca07e41",
    ("int", 2): "a41ddf66537439ffe5eaeef520aa412c8c15cee2ed7ba34420e3da017606948f",
    ("int", 3): "8dc708299d4f1a7c28877ce46e60ea8a5a74304cb05377fc81d9b9a23a1e7b47",
    ("int", 4): "e1c1777229619ac44c11edae18d9b1f45ff510683d58793a19e13ec9d3e18820",
    ("int", 5): "8bbe3747e129efa5e8c1c0cdb03147eacf70994723843e3dafdd9f09fc0c1279",
    ("int", 6): "c859ec118f3d619d1971f543dab5a2ec716ca0394b61b0e867c0e79d13cb7eb6",
    ("frac", 1): "1804024fc1a2c465586df37793a4ef6edc8df42ac931668598feddb0c4053754",
    ("frac", 2): "e6b00772ab5993ceee434068d5e148649d4ac877257717eef72255f9e420702c",
    ("frac", 3): "7535e7765a877782a61f0081952d5290047c57090d6772db22c7603fb8a915ef",
    ("frac", 4): "3386331e652592ad42892ced26d41a8f030d1890a82ece8d11590eaea0250e8c",
    ("frac", 5): "d886f3e74d71c4f1625b5959458181900533517419582eddf71a76fbb061adae",
    ("frac", 6): "02044bd233a5bc701e0fb3b7c2197defdad0fcbaa3f845fb7c148ce9df0a334a",
}

_KERNEL_SYSTEMS = {
    "generic": generic_system,
    "int": lambda n: random_int_system(random.Random(1900 + n), n),
    "frac": lambda n: random_fraction_system(random.Random(1900 + n), n),
}


# SHA-256 of solve's numerators X_1..X_n, denominator X_0 and quotients
# x_1..x_n, one render_scalar line per value in that order; the system of
# size n is the first nonsingular one drawn from random.Random(2400 + n)
SOLVE_SHA256 = {
    ("int", 1): "43746b742df5ba4d05f6c1cac6b3dfe08889d116ae3f474df9e62414af3cb4c8",
    ("int", 2): "2e1cee9c03f45c7757f336dc30bf25c89314a7e4a551ccc5ad78b6bc1571d4d1",
    ("int", 3): "fe4756d438f6842978e4eb997a1684dae070555b61a8e8d7fd493b56b7e446fe",
    ("int", 4): "ddcfdcdb5f21e034620b302893ebd095b55c386212d3dc12c4bf996031b2100a",
    ("int", 5): "66aaa69e5c09a54d033140707f0286dac25d8fb212bef03f1f5306b1fdbf3588",
    ("int", 6): "f8f543ff3a9873f03c0b768ae2e0f51d17494ec5ff1cd67ba8021ae7060b2a6b",
    ("int", 7): "8b488a563e63bb793f9e8380d393a7c2f7cc3cff8d25bfee9da95b78d6a2b0a0",
    ("int", 8): "bf0437646097d21176fe941ef18de7b5a0fd914024f12d7e9c01b2d5d95138f6",
    ("int", 9): "18c62dc1cc94440a3699ecb8ab208604a1e55aa6618b84dca4f5085714738ab3",
    ("frac", 1): "ebbba6fc67c1d5537797f38d5f3bb4d8d598b199f3a41189c0018311ca42ccf6",
    ("frac", 2): "d4dd897158f1907ba0b2786684f7c22fc226e1a793aca2d384546fda2e5511d2",
    ("frac", 3): "7d17c1401f4845026b5011076473b8b2997cfaaabbd911ae59076dbe55460b28",
    ("frac", 4): "1f5ee14a61a7b63b419ef130797cd3a5e4a2c7500ea17c0f4b39645b9144dc00",
    ("frac", 5): "36745d8123c61c24a3958bef148c68953b002bca520f1b4628815a90a3bebf6a",
    ("frac", 6): "35382398ae59673c3a8d7b685532d2ff1b54d74db5d883e90a1239502c6c22a2",
    ("frac", 7): "c4230d44ee5d38d5198bd641cd6e28ef638443f313c100de4974006c61e963c2",
    ("frac", 8): "c2fd365e990d3fff946a918cca7f24fa3b0c353e4b737001eda3c6604f9e4f5d",
    ("frac", 9): "ba1e5ca30702ca14dc7ad40977fac085675854e1d7e2a7c1d8eeef998b1ee3ae",
}


def _nonsingular(draw, n: int):
    rng = random.Random(2400 + n)
    while True:
        sys = draw(rng, n)
        if bareiss_det(sys) != 0:
            return sys


_SOLVE_SYSTEMS = {
    "int": lambda n: _nonsingular(random_int_system, n),
    "frac": lambda n: _nonsingular(random_fraction_system, n),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned(path: Path, name: str) -> dict:
    # the literal value of the top-level assignment to name in path
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


@pytest.mark.parametrize("n, i", sorted(CERT_SHA256))
def test_certificate_bytes(n, i):
    cert = build_certificate(generic_system(n), i)
    text = json.dumps(certificate_to_dict(cert), indent=2) + "\n"
    assert _sha256(text) == CERT_SHA256[n, i]


@pytest.mark.parametrize("n, i", sorted(REPORT_SHA256))
def test_report_fields(n, i):
    gs = generic_system(n)
    text = "".join(
        f"{type(report).__name__}.{field}={render_scalar(value)}\n"
        for report in (check_fact1(gs, i), check_fact2(gs, i))
        for field, value in report._asdict().items()
    )
    assert _sha256(text) == REPORT_SHA256[n, i]


@pytest.mark.parametrize("kind, n", sorted(KERNEL_SHA256))
def test_kernel_sums(kind, n):
    sys = _KERNEL_SYSTEMS[kind](n)
    for xs in all_big_x(sys), [big_x(sys, j) for j in range(n + 1)]:
        assert _sha256("".join(render_scalar(x) + "\n" for x in xs)) == KERNEL_SHA256[kind, n]


@pytest.mark.parametrize("kind, n", sorted(SOLVE_SHA256))
def test_solve_values(kind, n):
    sol = solve(_SOLVE_SYSTEMS[kind](n))
    values = (*sol.numerators, sol.denominator, *sol.quotients)
    assert _sha256("".join(render_scalar(x) + "\n" for x in values)) == SOLVE_SHA256[kind, n]


def test_digests_agree_with_the_older_pins():
    n4 = _pinned(ROOT / "tests" / "test_involution.py", "CERT_N4_SHA256")
    n5 = _pinned(ROOT / "perfbench" / "workloads.py", "CERT_SHA256")
    assert n4 == {i: CERT_SHA256[4, i] for i in range(1, 5)}
    assert n5 == {i: CERT_SHA256[5, i] for i in range(1, 6)}
