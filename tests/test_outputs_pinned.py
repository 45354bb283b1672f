"""Byte identity of the CLI's stdout and exit code on fixed inputs.

Each case pins the SHA-256 of everything ``main`` prints to stdout and its
exit code.  A refactor of enumeration, tables, orbits or edges must leave
these bytes unchanged; a deliberate output change has to update a digest
here, so it cannot pass unnoticed.
"""

import hashlib

import pytest

from coxvar.cli import main

PINNED = [
    (('det', 'A3', '--format', 'json'), 0,
     "d3993e35f480873d84490d3f9fc4bac8598689539c133cd349aed2175342238d"),
    (('tables', 'A3', '--format', 'json'), 0,
     "b50ce94189c6030e99e68a1043b559e699e587dc34e6bfcfe3c8b63b2d359c26"),
    (('multiplicity', 'A3', '--format', 'json'), 0,
     "060164f0afa75d0a018c11087f7f1becc1e3235e1422ea4b2a16c466a4fc3e38"),
    (('det', 'A3'), 0,
     "002d34fbd86f0c98de23c023cd3a8311b404f203fb0e8fab5c72fbdcf4ee2762"),
    (('det', 'B4', '--format', 'json'), 0,
     "a0c6b1960392ae88085c43f0480f32ec6668f6df2e27fa4afb678a0c3c54e3cb"),
    (('tables', 'B4', '--format', 'json'), 0,
     "45a1f8676c6e41a451201e1db7a27fa50f0b798f05dae612fc04b37a2e565898"),
    (('multiplicity', 'B4', '--format', 'json'), 0,
     "c166605372a1d9584e16a12605889c90e300d15d7fcf3e247060a3df8c5cd79b"),
    (('det', 'B4'), 0,
     "ba491cf9baf4f145a8046709dd6c093870178bb9ad851d81715fa58ae72a3337"),
    (('det', 'D4', '--format', 'json'), 0,
     "043c074f61e02102e1216026952d9d9a4706fb1a1baf35ef19f4c37b61e9a4fc"),
    (('tables', 'D4', '--format', 'json'), 0,
     "6d967a30237e60f9ef317c92bcba0a82ae85c8b19a6d1888eb4b4dc7c7c9a4cc"),
    (('multiplicity', 'D4', '--format', 'json'), 0,
     "f3b4215c740aa7d314873224a5003f2f9da91c442bceb63bc5ee495d68a10345"),
    (('det', 'D4'), 0,
     "154ebca949bbacfb04d5891669a4e9569061412c07e2a6e50e0388ca1b916d15"),
    (('det', 'F4', '--format', 'json'), 0,
     "cdf3549c125c097920159acaca96c73b3c02de238052db437e554183164303bb"),
    (('tables', 'F4', '--format', 'json'), 0,
     "ac890da36a5e0c15ec941664737a42d42b4cf30b843559eeae78a3f9b69e6b4f"),
    (('multiplicity', 'F4', '--format', 'json'), 0,
     "658151df58d8a3e771338b5fa2a8af9907c152b8ad8d329e5e83277df9793067"),
    (('det', 'F4'), 0,
     "6000f844ce18a8349849d756b86ba593d03d1c94063627f008e1dc3c5e87a1eb"),
    (('det', 'H3', '--format', 'json'), 0,
     "6ac3dddac326f889e446ae038ca8e4b580de3cd5445dae377b27ac80e567919b"),
    (('tables', 'H3', '--format', 'json'), 0,
     "5d4e5c95ae91071dea1243da3a3e63ab80524c6483457fa97f56e355e241ad4b"),
    (('multiplicity', 'H3', '--format', 'json'), 0,
     "089ee5efcfafd037b60eb0f1ff8be15ea61f829eb8acc420a9b272d649fac5f5"),
    (('det', 'H3'), 0,
     "be2a8672585adce3190ce46f0735747ed3b6bcd1c8282d5af0d0de14d9f4a02d"),
    (('det', 'I2(8)', '--format', 'json'), 0,
     "f78d44f772331a427231f23b2a0551602787f6c9a5f65017daa1c0ccb6b0c841"),
    (('tables', 'I2(8)', '--format', 'json'), 0,
     "bb83163618b279d90fd435ec9d1858bd6be5c8ce47ad2016ca434708cf287797"),
    (('multiplicity', 'I2(8)', '--format', 'json'), 0,
     "835996f415c7f8bf331151b09a48b09dbe6ebf1d85357aacb4683fae5c241caf"),
    (('det', 'I2(8)'), 0,
     "c5a212a6149cc59f19052e88c33ad82089fcf3a92aa90b75e04f4d15f20afae2"),
    (('det', 'B2xA1', '--format', 'json'), 0,
     "7a0997bafaff3935cc790429dc10c8e921c2e7ad5a678515eb14f546189a8832"),
    (('tables', 'B2xA1', '--format', 'json'), 0,
     "bbc9ae0e7b69c9a85b7fa24ae7d5ff8973529529d1a762ca6a51bd14bfc016bf"),
    (('multiplicity', 'B2xA1', '--format', 'json'), 0,
     "aa42246179662edb518e6b2a8d0f86a3d11983cb3484f55ac0d1b4c9ade27d9a"),
    (('det', 'B2xA1'), 0,
     "e55bedd889c52b9c7254dffcdc3e665589e028af248e884b429277bf737582a6"),
    (('verify', 'B4', '--seed', '7', '--format', 'json'), 0,
     "bbcbb00cb02d5771bf445a33ca6488458fdb745c7bf0e259fb9e1ee66e6bfbe9"),
    # the chamber oracle's largest runs: every class edge of H4 and E6
    (('multiplicity', 'H4', '--format', 'json'), 0,
     "daa6965f4548f594e35f0b05c612ac43d0ecddd411a0c6f18e55f35ad0f707ef"),
    (('multiplicity', 'H4'), 0,
     "12051494f8b5d7833cf5729e937d6d63788d53e73984c90ad8837eb1747d7475"),
    (('multiplicity', 'E6', '--format', 'json'), 0,
     "f44b14d83ce1b2e404b8fcd98182a80c844109aa6bc3c924c9fce94fc8e01fde"),
    # a dihedral group of large m, and products that mix rings: H3 (Z[phi])
    # with B3 (Cartan integers), and two dihedral factors with A2
    (('det', 'I2(1000)', '--format', 'json'), 0,
     "971eb00413ed7390041abc3a0614aee8ee29732a72f322bb6d918dee2dab6e57"),
    (('det', 'H3xB3', '--format', 'json'), 0,
     "dbb90928b335686d1779374c45905134fe6c08514b30dba8e2b227a9bbe9eee9"),
    (('multiplicity', 'I2(5)xI2(7)xA2', '--format', 'json'), 0,
     "c1814d7a6f33674aaadf6b2b45e964ed9dcf8ab6c7a643865f385d07315a812c"),
    # tables with the oracle on every row (E6, B6, H4), the
    # non-simply-laced choice of t_J (B6), and det D5
    (('tables', 'E6', '--format', 'json'), 0,
     "884e6bf5736dc317ca0b1e5430a86ebfb088624fe8c6de047928476ca407fe6b"),
    (('tables', 'B6', '--format', 'json'), 0,
     "ece95f0ddaa501014f4d9a449018b91e23d8277f7853fc477444d851549be4c5"),
    (('tables', 'H4', '--format', 'json'), 0,
     "0534b3411b680eec4a743e7d70a60f2a211fef50861c8222316c9c1aa8b40533"),
    (('det', 'D5', '--format', 'json'), 0,
     "470fb8fd7d559e147647cbb162ce0cd20599006acc5c6bf716eef158540838c6"),
    # det numbers its variables in W's element order without enumerating
    # W: E6 and D6 break depth and descent ties with 4- and 5-letter
    # normal forms, H4 is non-crystallographic
    (('det', 'E6', '--format', 'json'), 0,
     "a4ea8fa52227b5823ee522c34d820a05e8bb1b903a71e2f6abd52a7b2fd1de62"),
    (('det', 'D6', '--format', 'json'), 0,
     "9e6fb0b24ae52a47ab543e2f931d5cd0189e1942668636674241576e6d07afba"),
    (('det', 'H4', '--format', 'json'), 0,
     "ad1b8a1eacd27e699a742e2e0dab460ce7427d825791659e8caccf7cc11575c2"),
    # every concordance branch: Zagier and Duchamp (A4), Randriamaro (B3)
    # and the product rule (H3xA1 in JSON, B2xA1 in text)
    (('verify', 'A4', '--trials', '1', '--primes', '1', '--format', 'json'),
     0, "0a1ccf1d54ae233619075fc70dc01fe100d13eb598189777719913f399a43ac1"),
    (('verify', 'B3', '--trials', '1', '--primes', '1', '--format', 'json'),
     0, "f87fd095a04328dfe3e3ed190af2c140256872c9f7729f8f039b869e035465cf"),
    (('verify', 'H3xA1', '--trials', '1', '--primes', '1', '--format',
      'json'), 0,
     "f7c54587d43e2a6564f37311866a768e7810c99484cdbb1bfc07f9df28aeef9e"),
    (('verify', 'B2xA1', '--trials', '1', '--primes', '1'), 0,
     "5430117166748cb8e8cf8c290b06b8f560dcac4870397f8e6a09e497105a60d7"),
    # the one command that prints rows in element order with their reduced
    # words: W's ids, parents and generators, in text and in JSON
    (('matrix', 'A3'), 0,
     "5d203661ae315ecca995907a01192fb45b838cf574ee1df64aeaf0fb63618c7c"),
    (('matrix', 'A3', '--format', 'json'), 0,
     "5711ea348f4678d566aad5cf2e9978cc8e8483de2e5b568a2d17660231ce2abb"),
    (('matrix', 'B3', '--format', 'json'), 0,
     "0f3f463142706341d6611ec2123c250fd52b04b2aefff25d9135e20c65841909"),
    (('matrix', 'I2(5)'), 0,
     "ae9bfc0135f6b0857b4c8643c6234dda467f8e80c16da6e6d7293a15983622cd"),
    (('matrix', 'B2xA1', '--format', 'json'), 0,
     "26e973c5030c3df1629b4babeaddbf87c1a8353bddce244cc582ed7bd14bd267"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED,
                         ids=[" ".join(a) for a, _, _ in PINNED])
def test_cli_output_is_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
