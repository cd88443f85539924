"""Golden digests of the six check subcommands in text form.

`test_golden_outputs.py` pins their JSON; this file pins the text each
one renders (and `validate`'s JSON, which the command table there
leaves out), with the same runner over the same specs.  The digests were
captured before the six subcommands shared one handler, so they hold
that refactor to the same bytes.
"""

from __future__ import annotations

import pytest

from test_golden_outputs import SPECS, digest

COMMANDS = {
    "validate-text": ["validate"],
    "validate-json": ["validate", "--format", "json"],
    "check-locality-text": ["check-locality"],
    "check-signal-text": ["check-signal"],
    "check-anticorrelation-text": ["check-anticorrelation"],
    "derive-instructions-text": ["derive-instructions"],
    "bell-test-text": ["bell-test", "--membership"],
}

#: (spec, label, argv) cases beyond the command table: the flags that
#: name axes or roles, and a tolerance other than the default
EXTRAS = [
    ("golden/exact_local_3x3.json", "check-anticorrelation-axes-text",
     ["check-anticorrelation", "--axes", "n1,n3"]),
    ("golden/exact_local_3x3.json", "derive-instructions-axes-text",
     ["derive-instructions", "--axes", "n1,n3"]),
    ("conftest:singlet_chsh", "check-anticorrelation-pair-text",
     ["check-anticorrelation", "--axes", "a1=b1"]),
    ("conftest:singlet_chsh", "derive-instructions-pair-text",
     ["derive-instructions", "--axes", "a1=b1,a2=b2"]),
    ("conftest:singlet_three_axes", "bell-test-bell1964-text",
     ["bell-test", "--bell1964", "n1,n2,n3", "--chsh", "n1,n2:n2,n3"]),
    ("conftest:singlet_three_axes", "bell-test-plain-text", ["bell-test"]),
    ("golden/decimal_nonlocal_3x3.json", "check-locality-tol-text",
     ["check-locality", "--tol", "0.001"]),
    ("golden/decimal_nonlocal_3x3.json", "validate-tol-text", ["validate", "--tol", "0.5"]),
    ("two_state.json", "check-anticorrelation-empty-axes", ["check-anticorrelation", "--axes", ","]),
]

GOLDEN = {
    "bad_sum.json validate-text":
        "dd2cdfb2eee247edbd62eb76ea76e26223a0cef70677e2de6d5a1607ad73e383",
    "bad_sum.json validate-json":
        "da873d328b08d80f166fd117f6286a352356ee5b4823da940bc93faae2648799",
    "bad_sum.json check-locality-text":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "bad_sum.json check-signal-text":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "bad_sum.json check-anticorrelation-text":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "bad_sum.json derive-instructions-text":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "bad_sum.json bell-test-text":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "certificates/mixture_4x4.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "certificates/mixture_4x4.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "certificates/mixture_4x4.json check-locality-text":
        "b3f478e2bf11ee2bcb6af58747de045d9e4500ef0798fd5a245b0857e9b34e65",
    "certificates/mixture_4x4.json check-signal-text":
        "68aea7e261d098d4b2580424a42cf5d7ee8f6fc1aee52741cb392d735303a98b",
    "certificates/mixture_4x4.json check-anticorrelation-text":
        "cc1c54fa3ec36f28a32aafc77ab626e1d289790e97815184f16814e5b44e6e76",
    "certificates/mixture_4x4.json derive-instructions-text":
        "6f3981700e08fa325d26184c58c7f12dd125536f24bd337d1e895ed8c8284260",
    "certificates/mixture_4x4.json bell-test-text":
        "ff22480ff42c5d6df74ae2c528e7bbe7419271535bf470268b62a6777691d175",
    "certificates/singlet_4x4.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "certificates/singlet_4x4.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "certificates/singlet_4x4.json check-locality-text":
        "b44090c0b6948b70a613c45030c5499c64822ad4a41cb65d8fdccc50c4abda1a",
    "certificates/singlet_4x4.json check-signal-text":
        "3c516c5c0138dbbeb35e09d7c523b306af820415b5ea4e4ac15b17549e2f0034",
    "certificates/singlet_4x4.json check-anticorrelation-text":
        "bcb6a0f6cd2b0334e7eaa750358e09cffd6637fa97e76b25b3361fbc8ac0d169",
    "certificates/singlet_4x4.json derive-instructions-text":
        "91b001c7c5590607117fdd522972de2981cfb3e79859629c4dd015a1838674f8",
    "certificates/singlet_4x4.json bell-test-text":
        "1a8d1cb154118b54e2df2ea14e85857b5446befc2a4f0702ace8eb83cb480da9",
    "certificates/singlet_chsh.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "certificates/singlet_chsh.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "certificates/singlet_chsh.json check-locality-text":
        "84986adc85cbe5e4f4d914315a1efc9b2a5e7d6bc9ea6b1d4426592ea998e188",
    "certificates/singlet_chsh.json check-signal-text":
        "6299895d9f68f02fcacddfb616e753bb9a433c151cbd7ae2f5910bd95315c201",
    "certificates/singlet_chsh.json check-anticorrelation-text":
        "bcb6a0f6cd2b0334e7eaa750358e09cffd6637fa97e76b25b3361fbc8ac0d169",
    "certificates/singlet_chsh.json derive-instructions-text":
        "91b001c7c5590607117fdd522972de2981cfb3e79859629c4dd015a1838674f8",
    "certificates/singlet_chsh.json bell-test-text":
        "a4a799040dcb5e523dac6dee736f2c420f02ed7691d6a9e8f1f79ace3e884027",
    "certificates/singlet_equal_axes.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "certificates/singlet_equal_axes.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "certificates/singlet_equal_axes.json check-locality-text":
        "c40a8323e945fbf68e3f25394b5af3a5ad84df7ce73bc57bc978b985f4491af7",
    "certificates/singlet_equal_axes.json check-signal-text":
        "5b4eccb1b51f8f9aedfa7b65f69995544c7a72bb40ba31b83c981ba979c59a1f",
    "certificates/singlet_equal_axes.json check-anticorrelation-text":
        "226ac7f4e9a62aa86609078b9d73c2b817dd02ba4ddcad188f1cb0299fbce7f2",
    "certificates/singlet_equal_axes.json derive-instructions-text":
        "ce49b5713463f4a76af1933119acb7b2c54c957caa2b3e5ef0483252f68233da",
    "certificates/singlet_equal_axes.json bell-test-text":
        "a6a62e5dc3c20b271d5b8a01c8cc9f46f34c0f8bdcb959cbc97d0fab6fcf513a",
    "certificates/singlet_three_axes.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "certificates/singlet_three_axes.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "certificates/singlet_three_axes.json check-locality-text":
        "a193cbd4068cc88523e6ab7fc2298c5548cdac97bce77570ff8c31a97a4b8016",
    "certificates/singlet_three_axes.json check-signal-text":
        "6299895d9f68f02fcacddfb616e753bb9a433c151cbd7ae2f5910bd95315c201",
    "certificates/singlet_three_axes.json check-anticorrelation-text":
        "dcf19efbe64a5882155cbabcd4576101b26ec5c314e081c21b5052082f95dd56",
    "certificates/singlet_three_axes.json derive-instructions-text":
        "ce49b5713463f4a76af1933119acb7b2c54c957caa2b3e5ef0483252f68233da",
    "certificates/singlet_three_axes.json bell-test-text":
        "c8896aeb2eba96c8bdb8349defad46d31cf1fec110af1fc79e56e2d06cd1a4ef",
    "eight_pattern.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "eight_pattern.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "eight_pattern.json check-locality-text":
        "b3f478e2bf11ee2bcb6af58747de045d9e4500ef0798fd5a245b0857e9b34e65",
    "eight_pattern.json check-signal-text":
        "68aea7e261d098d4b2580424a42cf5d7ee8f6fc1aee52741cb392d735303a98b",
    "eight_pattern.json check-anticorrelation-text":
        "dcf19efbe64a5882155cbabcd4576101b26ec5c314e081c21b5052082f95dd56",
    "eight_pattern.json derive-instructions-text":
        "fd5ebd4665a98dca025c1e84b8f2c4c73275e3d6224daff9b4fe2199192b7f48",
    "eight_pattern.json bell-test-text":
        "4812f6e27e1af523da028c099c3672ee3bb4e6c5c617892f95bdf008ee2b9d5b",
    "golden/decimal_nonlocal_3x3.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "golden/decimal_nonlocal_3x3.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "golden/decimal_nonlocal_3x3.json check-locality-text":
        "8814588bb24125665bc202d9ff68277994a1e877046a899bae517bf02e497dd2",
    "golden/decimal_nonlocal_3x3.json check-signal-text":
        "03c6ef41af6559d50a2e9e60a498af8a1c98393f5f40eea4cd915f669736938b",
    "golden/decimal_nonlocal_3x3.json check-anticorrelation-text":
        "789ac8b6201711988f9470c809c79ef07b04ed622efcf6e28193d5cabd2e8bed",
    "golden/decimal_nonlocal_3x3.json derive-instructions-text":
        "9916317bd69cd8c92116b4d087df834bc404aa9dd3c255873413b5bb0526a0f7",
    "golden/decimal_nonlocal_3x3.json bell-test-text":
        "59beeaf64c78683ff2d829af861b090a0e7f24421d9317678b07e76ec6fbcbf9",
    "golden/exact_local_3x3.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "golden/exact_local_3x3.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "golden/exact_local_3x3.json check-locality-text":
        "b3f478e2bf11ee2bcb6af58747de045d9e4500ef0798fd5a245b0857e9b34e65",
    "golden/exact_local_3x3.json check-signal-text":
        "68aea7e261d098d4b2580424a42cf5d7ee8f6fc1aee52741cb392d735303a98b",
    "golden/exact_local_3x3.json check-anticorrelation-text":
        "49a6e1609d922cc1e5785da2a2cf1fc7fd2eb02fc833552ae32175c588d2cd79",
    "golden/exact_local_3x3.json derive-instructions-text":
        "ea8ab0efe10b298a05cdc4773cae6da234df1482ac6dfad1b1b533de2c4e888e",
    "golden/exact_local_3x3.json bell-test-text":
        "61edd5da2d41b69968bd7937a04fd1de176df23087c85faf49a969ab26c97708",
    "malformed.json validate-text":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json validate-json":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json check-locality-text":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json check-signal-text":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json check-anticorrelation-text":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json derive-instructions-text":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json bell-test-text":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "signalling.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "signalling.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "signalling.json check-locality-text":
        "6dc7350fccf6d1be5ec9504b6c751809baef483c8bfb404667e0b9c184c9d65a",
    "signalling.json check-signal-text":
        "42d1ffd3d9e4ac1a14fec05780d628f768316c7ced7d6962396fc4757f82791f",
    "signalling.json check-anticorrelation-text":
        "bcb6a0f6cd2b0334e7eaa750358e09cffd6637fa97e76b25b3361fbc8ac0d169",
    "signalling.json derive-instructions-text":
        "91b001c7c5590607117fdd522972de2981cfb3e79859629c4dd015a1838674f8",
    "signalling.json bell-test-text":
        "35d992dae83e556fb00a227dce585795ac249bc09198ea2f4b143461b50d82d6",
    "two_state.json validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "two_state.json validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "two_state.json check-locality-text":
        "b3f478e2bf11ee2bcb6af58747de045d9e4500ef0798fd5a245b0857e9b34e65",
    "two_state.json check-signal-text":
        "68aea7e261d098d4b2580424a42cf5d7ee8f6fc1aee52741cb392d735303a98b",
    "two_state.json check-anticorrelation-text":
        "5864851a1c5a1e061213d4a2384216c10b1b36eb6161047fca8d964cece41c61",
    "two_state.json derive-instructions-text":
        "4c870b58861d0d810e860ad5349dff551b525ee2062c1b97aac052035ff254e2",
    "two_state.json bell-test-text":
        "e58ad33020d8dc7201f057d7a17fa84d4ac9b807a20683d19eb39f84163746a9",
    "unknown_key.json validate-text":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json validate-json":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json check-locality-text":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json check-signal-text":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json check-anticorrelation-text":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json derive-instructions-text":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json bell-test-text":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "conftest:singlet_chsh validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "conftest:singlet_chsh validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "conftest:singlet_chsh check-locality-text":
        "84986adc85cbe5e4f4d914315a1efc9b2a5e7d6bc9ea6b1d4426592ea998e188",
    "conftest:singlet_chsh check-signal-text":
        "6299895d9f68f02fcacddfb616e753bb9a433c151cbd7ae2f5910bd95315c201",
    "conftest:singlet_chsh check-anticorrelation-text":
        "bcb6a0f6cd2b0334e7eaa750358e09cffd6637fa97e76b25b3361fbc8ac0d169",
    "conftest:singlet_chsh derive-instructions-text":
        "91b001c7c5590607117fdd522972de2981cfb3e79859629c4dd015a1838674f8",
    "conftest:singlet_chsh bell-test-text":
        "a4a799040dcb5e523dac6dee736f2c420f02ed7691d6a9e8f1f79ace3e884027",
    "conftest:singlet_equal_axes validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "conftest:singlet_equal_axes validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "conftest:singlet_equal_axes check-locality-text":
        "c40a8323e945fbf68e3f25394b5af3a5ad84df7ce73bc57bc978b985f4491af7",
    "conftest:singlet_equal_axes check-signal-text":
        "5b4eccb1b51f8f9aedfa7b65f69995544c7a72bb40ba31b83c981ba979c59a1f",
    "conftest:singlet_equal_axes check-anticorrelation-text":
        "226ac7f4e9a62aa86609078b9d73c2b817dd02ba4ddcad188f1cb0299fbce7f2",
    "conftest:singlet_equal_axes derive-instructions-text":
        "ce49b5713463f4a76af1933119acb7b2c54c957caa2b3e5ef0483252f68233da",
    "conftest:singlet_equal_axes bell-test-text":
        "a6a62e5dc3c20b271d5b8a01c8cc9f46f34c0f8bdcb959cbc97d0fab6fcf513a",
    "conftest:singlet_three_axes validate-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "conftest:singlet_three_axes validate-json":
        "9f2cac9b1a94d4aea5bad72fca5d04fa8785cf68cdf631293efb76f31914870d",
    "conftest:singlet_three_axes check-locality-text":
        "a193cbd4068cc88523e6ab7fc2298c5548cdac97bce77570ff8c31a97a4b8016",
    "conftest:singlet_three_axes check-signal-text":
        "6299895d9f68f02fcacddfb616e753bb9a433c151cbd7ae2f5910bd95315c201",
    "conftest:singlet_three_axes check-anticorrelation-text":
        "dcf19efbe64a5882155cbabcd4576101b26ec5c314e081c21b5052082f95dd56",
    "conftest:singlet_three_axes derive-instructions-text":
        "ce49b5713463f4a76af1933119acb7b2c54c957caa2b3e5ef0483252f68233da",
    "conftest:singlet_three_axes bell-test-text":
        "c8896aeb2eba96c8bdb8349defad46d31cf1fec110af1fc79e56e2d06cd1a4ef",
    "golden/exact_local_3x3.json check-anticorrelation-axes-text":
        "563ace2f623a43b99d15d829839d9ad4a74628d5d6e9eccef375771fefebfa57",
    "golden/exact_local_3x3.json derive-instructions-axes-text":
        "ef8a6356dcba18b18281ac79e0bb7c25f36e8ed71ea6c26d6b9bd9907d0d7a9e",
    "conftest:singlet_chsh check-anticorrelation-pair-text":
        "05a722ad0d13045dd309f473b8bd6f2495e9b017508d886d54e404ee98561163",
    "conftest:singlet_chsh derive-instructions-pair-text":
        "ef2d6a8f568d393efc82440a73a88eb8a88a6e5733ffce23045cab1a226ba140",
    "conftest:singlet_three_axes bell-test-bell1964-text":
        "b75ab8be1ab6a33f59fbd56590477e6a6b7f4e2aa248243742ab10651f9c8746",
    "conftest:singlet_three_axes bell-test-plain-text":
        "b77e4a01e92b4bba56767deb9f8dba079d1363328beba8eb58c5cfe03d5a58c9",
    "golden/decimal_nonlocal_3x3.json check-locality-tol-text":
        "e59851d4a8a75a6e630c97b422f86fa2c1ab86eebaf3db98d869e38465d787a5",
    "golden/decimal_nonlocal_3x3.json validate-tol-text":
        "b620cf755b9e7f51097d380ffc068e3d8bc6cf532fcbaca747fb9e5e40376cae",
    "two_state.json check-anticorrelation-empty-axes":
        "afe4b331977d03d7f92839d3bde85c47afa0f14d5482ccd522f6519f48831517",
}

CASES = [(spec, label, argv) for spec in SPECS for label, argv in COMMANDS.items()] + EXTRAS


@pytest.mark.parametrize("spec, label, argv", CASES, ids=[f"{s}-{l}" for s, l, _ in CASES])
def test_text_bytes_are_pinned(spec, label, argv, tmp_path, monkeypatch, capsys):
    assert digest(spec, argv, tmp_path, monkeypatch, capsys) == GOLDEN[f"{spec} {label}"]
