"""Golden corpus for the analog pipeline.

Each case pins one SHA-256 digest over a ``run_dog_pipeline`` pass (its
``CodeFrame.codes``, ``CodeFrame.oracle`` and every ``SimReport`` field) and a
23-trial ``monte_carlo`` sweep (its per-trial MAE and flip-rate arrays; 23
trials of a 28x28 frame span two batches).  The grid is every built-in
pattern x both cell models x shared/split arrays x ADC/bypass x both
variation distributions x settling error on/off x P = 1, 2.  A change that
moves any digest changes what the simulator computes, and has to say so.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from flexdog.cell import MODEL_IDEAL, MODEL_SIGMOID, CellParams
from flexdog.dog import DEFAULT_SIGMA1, DEFAULT_SIGMA_RATIO, make_gaussian_kernel
from flexdog.imageio import PATTERN_NAMES, make_pattern
from flexdog.pipeline import (
    DIST_LOGNORMAL,
    DIST_TRUNCNORM,
    AnalogConfig,
    VariationModel,
    monte_carlo,
    run_dog_pipeline,
)

MODELS = {"ideal": MODEL_IDEAL, "sigmoid": MODEL_SIGMOID}
DISTRIBUTIONS = {"truncnorm": DIST_TRUNCNORM, "lognormal": DIST_LOGNORMAL}
SIGMA = 0.05
SEED = 11
MC_TRIALS = 23
MC_SEED = 400

CASES = {
    f"{pattern}-{model}-{'shared' if shared else 'split'}-{'bypass' if bypass else 'adc'}"
    f"-{dist}-{'settle' if settling else 'exact'}-P{p}": (
        pattern, model, shared, bypass, dist, settling, p)
    for pattern, model, shared, bypass, dist, settling, p in itertools.product(
        PATTERN_NAMES, MODELS, (True, False), (False, True), DISTRIBUTIONS, (False, True), (1, 2))
}


def _update_array(h, name, a):
    a = np.ascontiguousarray(a)
    h.update(f"\n{name} {a.dtype} {a.shape}\n".encode())
    h.update(a.tobytes())


def case_digest(pattern, model, shared, bypass, dist, settling, p):
    image = make_pattern(pattern)
    k1 = make_gaussian_kernel(DEFAULT_SIGMA1, p, normalize=True)
    k2 = make_gaussian_kernel(DEFAULT_SIGMA1 * DEFAULT_SIGMA_RATIO, p, normalize=True)
    cfg = AnalogConfig(cell_params=CellParams(model_kind=MODELS[model]),
                       variation=VariationModel(SIGMA, SIGMA, SIGMA, DISTRIBUTIONS[dist]),
                       shared_array=shared, adc_bypass=bypass, settling_error=settling)
    frame, report = run_dog_pipeline(image, k1, k2, cfg, seed=SEED)
    summary = monte_carlo(image, k1, k2, cfg, n_trials=MC_TRIALS, base_seed=MC_SEED)
    h = hashlib.sha256()
    _update_array(h, "codes", frame.codes)
    _update_array(h, "oracle", frame.oracle)
    h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    _update_array(h, "mc_mae", summary.per_trial_mae)
    _update_array(h, "mc_flip", summary.per_trial_flip_rate)
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_case_matches_golden(case):
    assert case_digest(*CASES[case]) == GOLDEN[case]


GOLDEN = {
    "checkerboard-ideal-shared-adc-lognormal-exact-P1": "64712b32b4409dfe0bb2f57181c8a5b3c56dc4939ab381743e3a2ea0780f1330",
    "checkerboard-ideal-shared-adc-lognormal-exact-P2": "624b9aab8c9600155c2dab1a8702e5baf11bb84d0fcf2228a000553f2ec319c2",
    "checkerboard-ideal-shared-adc-lognormal-settle-P1": "772382c12e1ce730f223cc5a44d3aff72265ad1d4ed58708e56eca750ce86aa4",
    "checkerboard-ideal-shared-adc-lognormal-settle-P2": "5239b2d4fbde387b7452a14ed63dd863169f053694b3c782c87358246fcef832",
    "checkerboard-ideal-shared-adc-truncnorm-exact-P1": "fa03409572b8ed62f87e997f9a4de097c81d0a9a73483231cbe473e171548152",
    "checkerboard-ideal-shared-adc-truncnorm-exact-P2": "7871fdeda1d2f746515455029c4ea465f39493ece156d63369b8ec2c0382cbea",
    "checkerboard-ideal-shared-adc-truncnorm-settle-P1": "99fcd53ec208668f38f0a8656d5502d2fc10cd8ea26032faa8e48a9e9f483aa1",
    "checkerboard-ideal-shared-adc-truncnorm-settle-P2": "d900c5b1f3a5bad23a9e56dacb5756c4f3b780aaf52922a10a5872be4a094499",
    "checkerboard-ideal-shared-bypass-lognormal-exact-P1": "4615bb37825212aab3a94de9a4538c7607929330dfbfd11e9a6eedbbd6dea667",
    "checkerboard-ideal-shared-bypass-lognormal-exact-P2": "e0b95ad91d7e503ce59862b0d816501755d1d0d4d25f59fa1f7940c6c8a08b7e",
    "checkerboard-ideal-shared-bypass-lognormal-settle-P1": "9f6df6c6789410e3b98dcfdf3bf2e33b30df21b2ce2e3995e35a565172224116",
    "checkerboard-ideal-shared-bypass-lognormal-settle-P2": "67746027c196a8162a9dd3e06b2cd994f069edd2249d19719bbc58977e44f861",
    "checkerboard-ideal-shared-bypass-truncnorm-exact-P1": "dc9fa316b8f1daa4947ef1b4a84835e12c1152f573ffe02d948b8d74ecf46015",
    "checkerboard-ideal-shared-bypass-truncnorm-exact-P2": "35d8ee2e10ab6d67cbbc6256109f5e4a89deaa711339fed157b24415248c37ae",
    "checkerboard-ideal-shared-bypass-truncnorm-settle-P1": "d738ef3f08a210baa450f4b2c2d0f7380f8a8bd825648af95a9a19251bf8d291",
    "checkerboard-ideal-shared-bypass-truncnorm-settle-P2": "30679d9b930c7e70c59d445a80616f446e7f9082763d381817bdaa3b5b0d7da0",
    "checkerboard-ideal-split-adc-lognormal-exact-P1": "025eacfb6b4d1f06eb09a236bfb523b5c7dcd35b927b657fae1345a3df122bd0",
    "checkerboard-ideal-split-adc-lognormal-exact-P2": "e092b01a0f137c881732a6adbbb501ee12ea0621e5ff9d1069632edab0533e24",
    "checkerboard-ideal-split-adc-lognormal-settle-P1": "8ab4fc9c2437c81a55aaf765ffe7dd2771b016563cfed722e425187868774f05",
    "checkerboard-ideal-split-adc-lognormal-settle-P2": "0d803db11ed98c714d6f2f70f5ce86e238097ede6faafa130eff75e09438c6e9",
    "checkerboard-ideal-split-adc-truncnorm-exact-P1": "07cced5a1a830c899ab90bc00e3de8450efa224dbb6710c2309b170935d0ef65",
    "checkerboard-ideal-split-adc-truncnorm-exact-P2": "910645953ac48695669d94b737a102d6070e5e8719e4b2c5366c38a3ce1e1305",
    "checkerboard-ideal-split-adc-truncnorm-settle-P1": "c01b47b1c891fa9aac2efd1539f093e2810ef4c27cce8277dc487d51a787cb79",
    "checkerboard-ideal-split-adc-truncnorm-settle-P2": "f00fe0208c4ba8c2ca4d6eb68226d2ed4641d40912e626762033f8bba8716cce",
    "checkerboard-ideal-split-bypass-lognormal-exact-P1": "f4853b39fbae3bd6f1cbeb7b795b317620f62294dbf4574093fd7092c359c5af",
    "checkerboard-ideal-split-bypass-lognormal-exact-P2": "0d69b49cd1b2cb3a430be9d2fad7ddb4276059cc6dc2107e18d0d63eb7ef4d58",
    "checkerboard-ideal-split-bypass-lognormal-settle-P1": "24d035c02c1d08b0a886a4dd7b76e22c51a6b08f8b16e301f19e6f4fcbd61332",
    "checkerboard-ideal-split-bypass-lognormal-settle-P2": "1ccee0eebd7897da250915471e4d9ba467f445c9b9b4c0293533c12ba0874381",
    "checkerboard-ideal-split-bypass-truncnorm-exact-P1": "eba71eb6c2893b0de8b2ddb2c5fc34378f5e3624a66264ff96f24d0e2d082e79",
    "checkerboard-ideal-split-bypass-truncnorm-exact-P2": "365e788fcd6c77530a3fab6a0f61b84e9e7e9b66a740909c44ed63a8fbe82270",
    "checkerboard-ideal-split-bypass-truncnorm-settle-P1": "3984875997819bb35a51ee2a640a1458defde79e1489a70902133fb39099aa99",
    "checkerboard-ideal-split-bypass-truncnorm-settle-P2": "d9ac6d297cdfcd7f3f1b2774d8f2463fc375585ba2a3fcf5fb8c42d010505ce1",
    "checkerboard-sigmoid-shared-adc-lognormal-exact-P1": "de95d25fce72db611f6ada9273064d8ad29baee7ab8ccf10c6cafb2e759fc95b",
    "checkerboard-sigmoid-shared-adc-lognormal-exact-P2": "da6e33e42cb21388f017e2f573f1573551dfaec03562474926d36dd4c44338e7",
    "checkerboard-sigmoid-shared-adc-lognormal-settle-P1": "45ef3155bfe603ae4101bc6c247d586e43aab6fbd76ec4d437c42bf2ab20cb44",
    "checkerboard-sigmoid-shared-adc-lognormal-settle-P2": "912138220e8a70434e52764fd0495c8a67991d63e24ec81283ac7f4601248795",
    "checkerboard-sigmoid-shared-adc-truncnorm-exact-P1": "99cf103551bb1496b762aa3fe2a95ba57df0f078b93f82b9e11b4cf4355791e3",
    "checkerboard-sigmoid-shared-adc-truncnorm-exact-P2": "2b95edef34c54b61a2122c28d784c37cca75f6a37d64ddb5d9fb1d8ef1ea877f",
    "checkerboard-sigmoid-shared-adc-truncnorm-settle-P1": "8b3a6218bc6c1da2591d46f850c00a2e62eb6b3b7e2e50d771d8fa12f0017e47",
    "checkerboard-sigmoid-shared-adc-truncnorm-settle-P2": "7c7bb2f3326afcfff0366242281fc6dd8c429c3aa26a11b407ef813ab910feda",
    "checkerboard-sigmoid-shared-bypass-lognormal-exact-P1": "cda213f05f169b519dd41d3906299d732a3f98d757539790c20e700ee3a5a32e",
    "checkerboard-sigmoid-shared-bypass-lognormal-exact-P2": "71bdc07dd0596bbbd532d5a276e218febab1652294360a87f103b9e019f71562",
    "checkerboard-sigmoid-shared-bypass-lognormal-settle-P1": "0725ccfdadbef2efa31aace363a0485c1eac5a535330534392ce594480e87ef4",
    "checkerboard-sigmoid-shared-bypass-lognormal-settle-P2": "2ead62d71cecc75695c43221493109ce0081159fd77c0a6048527afc897fd6e3",
    "checkerboard-sigmoid-shared-bypass-truncnorm-exact-P1": "724ddf3d40d5321932c13d858f66d2528a6d53be14c5ce3b8057febd0c9932c1",
    "checkerboard-sigmoid-shared-bypass-truncnorm-exact-P2": "c44d1c7cf9ce99259b3553838219caa2c781c6872f08df0bac027bfe1603bd5d",
    "checkerboard-sigmoid-shared-bypass-truncnorm-settle-P1": "f1c9a3ff089833c412c57c0b95f22a43dc82f1b3fbdcf65df88e6cc619965427",
    "checkerboard-sigmoid-shared-bypass-truncnorm-settle-P2": "e39618ec9aa3771599162842d9eccdb4634e895d1e42028b655bcd4e17fbd820",
    "checkerboard-sigmoid-split-adc-lognormal-exact-P1": "ea333cc10379daede7a70851eb3682f000c5f896f3d43767c2dad260e573e7ed",
    "checkerboard-sigmoid-split-adc-lognormal-exact-P2": "e7259da033f4c038bbfd96ed28ec05b20f46d445a4d928374f6b7c1af4631771",
    "checkerboard-sigmoid-split-adc-lognormal-settle-P1": "fa8c9d66759def3955f5f66e319be00124fe2d567ec1f5cfd90d094a0a02f91d",
    "checkerboard-sigmoid-split-adc-lognormal-settle-P2": "ff588eb402c51c6ea19a8ac33bbfef420a758d528ab61744efe2a23c1bedb267",
    "checkerboard-sigmoid-split-adc-truncnorm-exact-P1": "0e2737c816b6190739728a0895d9e3e920fa372c32f1080d8443122b0b026ddb",
    "checkerboard-sigmoid-split-adc-truncnorm-exact-P2": "2d4aa25f449bc96b55a4a71f84f600d0e32406e8f62817111a97b3eb859b75eb",
    "checkerboard-sigmoid-split-adc-truncnorm-settle-P1": "8a495d1673a45d614bd7205274461f0281eacfbca8fb00ba62624f95a23419f4",
    "checkerboard-sigmoid-split-adc-truncnorm-settle-P2": "6d411ab4d4cd397ae3061153880d8c5a240b4b1ac081a03a114553416ed16711",
    "checkerboard-sigmoid-split-bypass-lognormal-exact-P1": "0d979febe90d2b47d5541494ae3e681d9deac54ab50496957530051b597863b0",
    "checkerboard-sigmoid-split-bypass-lognormal-exact-P2": "0f96484c590e3b1e980a0357b45742aa997ef008cbb0b2d1a98e3d211e1361f9",
    "checkerboard-sigmoid-split-bypass-lognormal-settle-P1": "875b617e3c015b7c91cae11e370d8953cabcb15d2b0e430caef38680565069c3",
    "checkerboard-sigmoid-split-bypass-lognormal-settle-P2": "247b8aa4db23c33b06807f8e997781a3742e1264f4d7e5bebe3beb84ae829a7c",
    "checkerboard-sigmoid-split-bypass-truncnorm-exact-P1": "f87e46339d4a3c7b753794cc4203a98171dcb724fd7824626d3ce396838a4ea9",
    "checkerboard-sigmoid-split-bypass-truncnorm-exact-P2": "bfa30cf09e79775a8cd2693472b258b3d31db7622650fb497acff718be6cd460",
    "checkerboard-sigmoid-split-bypass-truncnorm-settle-P1": "29056076541b6a2aa1f38a1a20c0bf511ff2b42bbd695cab5eb48b0db66d8b1b",
    "checkerboard-sigmoid-split-bypass-truncnorm-settle-P2": "3aa6cee20879b10005a372a714c12bc4e329e84fbf0b6a120cc506016fcdc596",
    "constant-ideal-shared-adc-lognormal-exact-P1": "311c9bf0c4758ec0f2b86966c51127f8809b93882ef7d1826b10f89da6269f74",
    "constant-ideal-shared-adc-lognormal-exact-P2": "83457f990e4424291b2147dbafd26379a037d5c14a75244949798f5cfc4dd09c",
    "constant-ideal-shared-adc-lognormal-settle-P1": "22d98317dfbf9a23504e71b7f5c4dfaff46c7d286327de0a846ee5f02211e742",
    "constant-ideal-shared-adc-lognormal-settle-P2": "246a03084a72c8e55428c78cf9afce3985483d2c89b435cc52ed877b9dc3a9d5",
    "constant-ideal-shared-adc-truncnorm-exact-P1": "d08f6b49c21a66a796bb297eb113891b88a1e8904b4cf0281805072b336855f0",
    "constant-ideal-shared-adc-truncnorm-exact-P2": "268a7b5871ebcc65453eea2529ac4b079533e50873fd87377a6616a9d0d44535",
    "constant-ideal-shared-adc-truncnorm-settle-P1": "968d381fb611f8ba41a7bb68e819d2921f260f155c78ba7d5b7d88da07f3d66d",
    "constant-ideal-shared-adc-truncnorm-settle-P2": "07b34aa5d5d073abd4c4a7aaf90a240a4a588245bf92d2adefe41e1a1d6f7515",
    "constant-ideal-shared-bypass-lognormal-exact-P1": "ecc288e95537c496af90346751f115521420b101a64b99626dd884ba80709f74",
    "constant-ideal-shared-bypass-lognormal-exact-P2": "5e36729b79bccc5fb829950c621af8c4a6201f286317bc4a23f6cb22c4847e8e",
    "constant-ideal-shared-bypass-lognormal-settle-P1": "51be01337f4845ee09187fea3b6ba7405a22f6efdd2211549823f7037112fa9e",
    "constant-ideal-shared-bypass-lognormal-settle-P2": "1be5dacce903b04b01a9faaa0e43b9544bc79da064ef49c492bbb3744130224b",
    "constant-ideal-shared-bypass-truncnorm-exact-P1": "d55a04340bc8eeb4426cb33a3922a6d3ca360698d4b07f2d17643ed157197e2c",
    "constant-ideal-shared-bypass-truncnorm-exact-P2": "2b1b2c5f54dfa91c241e5721f86db3ff3e60fba6d2c9e8e1994ab39b59bbae21",
    "constant-ideal-shared-bypass-truncnorm-settle-P1": "537a081968565eb21cd61e087ebd666b0088e85767b48dfc8be224186ba2ed4c",
    "constant-ideal-shared-bypass-truncnorm-settle-P2": "c4a8ca3f48b33c26ed04ab3bc9def542df605e52ae869a8f7ec8b783a2ac97d7",
    "constant-ideal-split-adc-lognormal-exact-P1": "5e1791794e2a95274419a78fcfe92d85236bdd4840b8fbe8bc8c8131fa7e2a86",
    "constant-ideal-split-adc-lognormal-exact-P2": "ed67d21e58f02ae7df9db9058bd98e3370ad4ac98edc94d200bb2324ec6e9767",
    "constant-ideal-split-adc-lognormal-settle-P1": "1d7936353674e8e3df9a2da043e458a0381ce692f4a929ed81ee22a3c59043e6",
    "constant-ideal-split-adc-lognormal-settle-P2": "2eeed847997cb19ae098b10f3efb1c982fbf8a7015a671af36a1e0045ac2499f",
    "constant-ideal-split-adc-truncnorm-exact-P1": "8a552055996b1fd3f038ae2036d05cdd22f35f5f8e422ed0fa1b19a58ec259a6",
    "constant-ideal-split-adc-truncnorm-exact-P2": "f87cd66254065859a382d5dbfedaaf9528a526f995765adf613f93520c126b52",
    "constant-ideal-split-adc-truncnorm-settle-P1": "5c8c3b268551fa3ccd37b38fc13cdd62514ed0b0a80cf0327cdcac2928c8a0c8",
    "constant-ideal-split-adc-truncnorm-settle-P2": "d7c2cc9bbfb071ae56c3f2d8a9db692b3478acd17451b6325f59b9b903e5f891",
    "constant-ideal-split-bypass-lognormal-exact-P1": "7e9339594665b00a0f3d7d23dc53839ba31287d84e77a8a1bd8c6240fe9a3e5c",
    "constant-ideal-split-bypass-lognormal-exact-P2": "590bd692bdd7655cd6819389c9ba9df7c5229d7888c95488e3bbee9b4853e3c5",
    "constant-ideal-split-bypass-lognormal-settle-P1": "8a0b42544f2e71f181e038923ebe65324d249c7cf99eb9a09d6ed6f256290a7f",
    "constant-ideal-split-bypass-lognormal-settle-P2": "22ef1223937ccf4acc31a92e24d81c6df75c987fa212b4d99fcd875c7f4fde5c",
    "constant-ideal-split-bypass-truncnorm-exact-P1": "06c78a98552b02ac9c0a46fb94599aafbcf05b33cd3ba4e2d33315e1ea7f4dfd",
    "constant-ideal-split-bypass-truncnorm-exact-P2": "56babf2570af9ef6c0b4825f57a71beafcb2920e83d080464df197c1b5b3b7c6",
    "constant-ideal-split-bypass-truncnorm-settle-P1": "ea5329812e0e377e314fd2d5fede4fd6866d98eceafa0b5ab44eea3dadeb98b8",
    "constant-ideal-split-bypass-truncnorm-settle-P2": "f903f13b4d443adfaac9b47921b063c79f485588d450de67dd378ae23daf8584",
    "constant-sigmoid-shared-adc-lognormal-exact-P1": "3814442d77b65d7871ca686704f8fe3b1691b9b610eb531c5af3038471c33618",
    "constant-sigmoid-shared-adc-lognormal-exact-P2": "a41489efc5806f59ac6f74e096a5d83a4063e219268e59646a57c620bac893cf",
    "constant-sigmoid-shared-adc-lognormal-settle-P1": "3ae0e679b29936cb51da2e26003635d0997a09717a331991f0033f50ce66276b",
    "constant-sigmoid-shared-adc-lognormal-settle-P2": "f3c1e941aaceb5fc1989c67c43f660d3344ed6dc3a5e9410f1e94ddd1e43404d",
    "constant-sigmoid-shared-adc-truncnorm-exact-P1": "b2254932f8269353af67245840727e01807f51c2baaf9ef974387fac2a445663",
    "constant-sigmoid-shared-adc-truncnorm-exact-P2": "db62e6c7e0ea78ceb29868782fbbcf02fd32942bf9de32fd7235843edc4bcbbd",
    "constant-sigmoid-shared-adc-truncnorm-settle-P1": "91b588482518c1c056988cc81d6168119e26cadf53d9b534382fb08ba313ca21",
    "constant-sigmoid-shared-adc-truncnorm-settle-P2": "0f2f15248ff9fde6ccee7acbcf67f33d510a5dd0a836f154072eb361df73e54f",
    "constant-sigmoid-shared-bypass-lognormal-exact-P1": "67e40e2f7e53653fb450f498b14869f70a4f0b479eab97f2812b408de08b8e2a",
    "constant-sigmoid-shared-bypass-lognormal-exact-P2": "c1974f3add28a2d104a98d8c6b7390dbddf907f287b31a4f80597177ae1512f3",
    "constant-sigmoid-shared-bypass-lognormal-settle-P1": "60f249cf1657cb2ef884f77d43b760b0fdc65e267a7a042f686fa3daad412ef5",
    "constant-sigmoid-shared-bypass-lognormal-settle-P2": "191f5c6107ff806b7aba4d34900ae746af9372cd5451afaac998ccd32be9cb18",
    "constant-sigmoid-shared-bypass-truncnorm-exact-P1": "e217ee5ecbbaa006be15d2a1101a6b44c20b613440353222a25dfadc8072c5ff",
    "constant-sigmoid-shared-bypass-truncnorm-exact-P2": "b9f7190c2d1c14a4d31d1fe324fb850a70fc271693c8262b3ae50f8f49c981b3",
    "constant-sigmoid-shared-bypass-truncnorm-settle-P1": "9aed060d984df2532f232986b44b30f2435ebc439586a739f4cba9352bbb0710",
    "constant-sigmoid-shared-bypass-truncnorm-settle-P2": "56dd13620afb467d0c56d34700a2aeabce7361be97c3696ecb5842f7a589492b",
    "constant-sigmoid-split-adc-lognormal-exact-P1": "d531f921163869f2292e154b0f31b1124ad9b803841645fa057b7ba301b2af85",
    "constant-sigmoid-split-adc-lognormal-exact-P2": "3fe8e4670a2fc8957d5bd9483be4d1fec29ee2ed5cd4c7446ce9cf5ee8d28f46",
    "constant-sigmoid-split-adc-lognormal-settle-P1": "977d17f0516ce0b8dea60a4920747b9cbf45ec0358e93da6cb9b15dd8b175a14",
    "constant-sigmoid-split-adc-lognormal-settle-P2": "c18160d584be86455401c1498a29c20683a8d7657a28b86b6fa12c3000caed8a",
    "constant-sigmoid-split-adc-truncnorm-exact-P1": "f0f8019e3134462a7f77cad9a2beaf6e24116563d0a954573cbe8c15c536003f",
    "constant-sigmoid-split-adc-truncnorm-exact-P2": "ee0d205ff0d8df54b0597c91e802e46f548d11942dab22d0ab00d440549efb22",
    "constant-sigmoid-split-adc-truncnorm-settle-P1": "627e7d74167e3ea8c3f906c060567c39ffb38cde8e4bad4c05f6c6aaffc3d127",
    "constant-sigmoid-split-adc-truncnorm-settle-P2": "00f83f369b0848ee1f6b777aea40eac2161f3cbe81d43f813edcefdb8ac79647",
    "constant-sigmoid-split-bypass-lognormal-exact-P1": "756cc0fda332812ceffdb816acf99a7db2ca5401797eeeb5fb50448fdd1c7a17",
    "constant-sigmoid-split-bypass-lognormal-exact-P2": "e663ab7d61d6b2ecf5b3afcfe3a8ad854a194244b6ec1bde766b33e720c749b7",
    "constant-sigmoid-split-bypass-lognormal-settle-P1": "82db93094d0e2d6e5cc197e7b0fc85b400475e2f95799cc49c33b30165bf7db6",
    "constant-sigmoid-split-bypass-lognormal-settle-P2": "ca1392ba97f0f7b1ffbc33ee8d4fe517e8e088643f72fc44d95f71518f8526f2",
    "constant-sigmoid-split-bypass-truncnorm-exact-P1": "3223c853f9025a7af7d8057385691876c706c757e376ca0269a0df1506085814",
    "constant-sigmoid-split-bypass-truncnorm-exact-P2": "be10a1dbfe39c2f2a1babf8aaf0006289541b585c31088ffef3ccac5988d394a",
    "constant-sigmoid-split-bypass-truncnorm-settle-P1": "e71883b2e1708b542053789da678a2e9fc563c6fd616d95e4e196d1e778d1232",
    "constant-sigmoid-split-bypass-truncnorm-settle-P2": "9f09b4f9c65cc21c38acd277a6b8fba9da09e9decc5a5db07bc28bb0dc8cb7fd",
    "dot-ideal-shared-adc-lognormal-exact-P1": "f9d13ee5426aea76e578ae31411cbbf2c01017edaae3886ab46cb5d8cb21a439",
    "dot-ideal-shared-adc-lognormal-exact-P2": "b236ab0c47d8a38510d6d23a8065262be45c4bea01643910e384a7a8b95fa3d4",
    "dot-ideal-shared-adc-lognormal-settle-P1": "9c419f17a311aaf951ff1cc5206ae9e2559e27cd73b93213ce1e40df7e6973c8",
    "dot-ideal-shared-adc-lognormal-settle-P2": "be66a4f231d1bfe001f3225fd934b7074c5c573f61225406db632b8adf2f725f",
    "dot-ideal-shared-adc-truncnorm-exact-P1": "e54988f3d541edce8e95b83f1ef6a4f212d2093b95bc88b130cc291a21b0cf60",
    "dot-ideal-shared-adc-truncnorm-exact-P2": "3b2cc7234dee06df40d5fd9fcdf656453fd9bcdaa68fccb0b943dd7c23239e38",
    "dot-ideal-shared-adc-truncnorm-settle-P1": "859bc855e9b749de9fb51c374671e5b8bf438a602d4c57e67873a666df419a85",
    "dot-ideal-shared-adc-truncnorm-settle-P2": "6ba9d36676b2141c4324d74150fd094980d29342d0e076354630e11f54199680",
    "dot-ideal-shared-bypass-lognormal-exact-P1": "b85e61a03914d2012c58e56a3609ac4000d26424555e8acc5857cc2323a5a4f9",
    "dot-ideal-shared-bypass-lognormal-exact-P2": "5197d78dbdfe058ff927ad98af786eb11a5704fc0fe5bb861b709c32724733e4",
    "dot-ideal-shared-bypass-lognormal-settle-P1": "910f285f7cbb70c964383f2fc183baba37a156d3a4ff5de64436af105f7d1e8a",
    "dot-ideal-shared-bypass-lognormal-settle-P2": "c5e88f97c356343982691414dd2fb561b0d0b40dff513029582b64d0dd3c850d",
    "dot-ideal-shared-bypass-truncnorm-exact-P1": "5cfecb26b947ce339d2c139449c1f5d578b2671dec7b3e1b4f6f9848b3856b8b",
    "dot-ideal-shared-bypass-truncnorm-exact-P2": "f074f02a12fd2fc49ff06229bf9615e89499057e099f67de88a3f71471a0def9",
    "dot-ideal-shared-bypass-truncnorm-settle-P1": "bfc070a50583be474cd7ac22c729da0d190a22a52da809874bda7075b73699be",
    "dot-ideal-shared-bypass-truncnorm-settle-P2": "da904dd128d4a287d86dfc10ef1d140948205cae26239f25b28b9368c9f7fb2a",
    "dot-ideal-split-adc-lognormal-exact-P1": "33c9716769f3957ecf0809f072c0f7f149cbbb1dec2133ac1d140f5e7744f2de",
    "dot-ideal-split-adc-lognormal-exact-P2": "21869b7e2107d1eb7822bd710c4d907b3b03b702b44c022ebd81ed389c30e447",
    "dot-ideal-split-adc-lognormal-settle-P1": "5ac7a215bd2bb836bca9466988ba2ec2289a0572c3500065e02d52b8ead1c66e",
    "dot-ideal-split-adc-lognormal-settle-P2": "802b39900083c61a7fc8aeff693ff00e03bf81e1a9ea89c3426dda060fe70692",
    "dot-ideal-split-adc-truncnorm-exact-P1": "f721e0d85ccb9f2363012718876d4715af76664371c712484e3f8adca42b8932",
    "dot-ideal-split-adc-truncnorm-exact-P2": "c62e8f784dbf9b78654ee00a4bd75a86bb9ad94ab0d37ad64d877d815c239c31",
    "dot-ideal-split-adc-truncnorm-settle-P1": "b4116ab0265d2eef1fc29e71e27e0f26cd36347050adc0227c8c1f10309e97f3",
    "dot-ideal-split-adc-truncnorm-settle-P2": "4d9e0d82ae9d8191971680b92eb3340c53f99718ffa5b7fb4659d1bf47554045",
    "dot-ideal-split-bypass-lognormal-exact-P1": "e704c6bc95f902f7aefae468b9be036dd1051daaef6f6e4e03dd25107cde0ccf",
    "dot-ideal-split-bypass-lognormal-exact-P2": "729f5e3d249d7ca7df5418395685120074cbb37e1521c8c32d3bdeacccf79286",
    "dot-ideal-split-bypass-lognormal-settle-P1": "29cd31fd15009d48b2b74cd87479bbd1de7e15eb445725337f9ec0d9feb8200d",
    "dot-ideal-split-bypass-lognormal-settle-P2": "05ad452bb44dd61495cbf0fc3ad460159e5ee80cd4dbf073b804c6071ff387a3",
    "dot-ideal-split-bypass-truncnorm-exact-P1": "e1a60e73b74efd43bdf18b0ff25f29658e92edccf12fe233e6a9890a1a1ac31f",
    "dot-ideal-split-bypass-truncnorm-exact-P2": "619f1dc041fc7308784a0c4e301d703b3c44424d0fea089975e945c200a26bdb",
    "dot-ideal-split-bypass-truncnorm-settle-P1": "34e64ea98fed0d4122cb3d11123901c8606a7215602bb003dc07d40258b54e14",
    "dot-ideal-split-bypass-truncnorm-settle-P2": "2317f14574d183139d5d8b71a62d3d0b17acbe6d60d080de0ce31c7513486cd9",
    "dot-sigmoid-shared-adc-lognormal-exact-P1": "c894b8ae42936c0e92bb65c5c7792858d1147b42be912ad9077a74cc3bbb0a5f",
    "dot-sigmoid-shared-adc-lognormal-exact-P2": "80ef48caa8c54216c846c3ff7af46477d3a3a66c390018256618ffbccc4b19e8",
    "dot-sigmoid-shared-adc-lognormal-settle-P1": "ca33ce618e54ce89f08db2de756ee3445ab9b764413caf4993feb889b5dd6e21",
    "dot-sigmoid-shared-adc-lognormal-settle-P2": "94117749918d41264d8ba2e8e7a904a03f1c91e5d65d4735a896420ab3163659",
    "dot-sigmoid-shared-adc-truncnorm-exact-P1": "36ac0c52947fc74bf2ecb4070b8e006956c05aa641fd6d795a9d242f9f3c94e2",
    "dot-sigmoid-shared-adc-truncnorm-exact-P2": "d8fac3e149287dc47463d528ccdd126efcbc23cdbe8f4fa53e1ffb58120ec7c9",
    "dot-sigmoid-shared-adc-truncnorm-settle-P1": "dcc10b7da318a3eb488b1a696db481d81267b7d8f3062827c376f522fae0744e",
    "dot-sigmoid-shared-adc-truncnorm-settle-P2": "021e78a276e518cdaf7c99adee65ce88ba7f4faaf01defbc559cfcb2f88e9c3d",
    "dot-sigmoid-shared-bypass-lognormal-exact-P1": "8a74c297f69ff7e856bfb4b199f0a35e620d5718d0c475b3b98cbd4d3fced1df",
    "dot-sigmoid-shared-bypass-lognormal-exact-P2": "6ee58252157e9aa3d8dc76edad7892821a99af32552b4e148530ffc9311f70b5",
    "dot-sigmoid-shared-bypass-lognormal-settle-P1": "491086e6f3f0150bc57c4653acb664cba01539198d8c679af08ef47bdec34184",
    "dot-sigmoid-shared-bypass-lognormal-settle-P2": "43974834db6931b1be0d2a0036d0ee8dcf7b4e064b04c72d15d99bd26090480e",
    "dot-sigmoid-shared-bypass-truncnorm-exact-P1": "e3946f4d633cd3c667cf12a0ad9758dc85e1789b9144a38b976c58a1726ece3d",
    "dot-sigmoid-shared-bypass-truncnorm-exact-P2": "ef1794992f7110714512981e860a4ad68e08650715eee2a214fae5472abdcdd5",
    "dot-sigmoid-shared-bypass-truncnorm-settle-P1": "fa8bd3defe812258f81791d5488bae05ebb223faac1c5530a35a214c7fda4316",
    "dot-sigmoid-shared-bypass-truncnorm-settle-P2": "e8c24087c61fb45f71935f4dcc09014585ec297c91e6cc02bb915ebd9e070736",
    "dot-sigmoid-split-adc-lognormal-exact-P1": "637a77d09b471a5e09bcf533e61db3b3eae031d4eb6301df1bb1b3b811769cad",
    "dot-sigmoid-split-adc-lognormal-exact-P2": "9a6f04ed1f576a7c6d9dfc34c33f39f7864ddd6a60dc5de2ee0fef3833bab98d",
    "dot-sigmoid-split-adc-lognormal-settle-P1": "46053ee884c6bd6f4d4f70cb2566a1f6ea45f38804d46ea9d19aaf42b10ce7e9",
    "dot-sigmoid-split-adc-lognormal-settle-P2": "9a6f04ed1f576a7c6d9dfc34c33f39f7864ddd6a60dc5de2ee0fef3833bab98d",
    "dot-sigmoid-split-adc-truncnorm-exact-P1": "fbeb7dd57b3c2d75c0a2b7ff393a4ba5a0398c4925575609ea5289a32380b54b",
    "dot-sigmoid-split-adc-truncnorm-exact-P2": "7792391d2c74886ede21594f22461b883081f5ba67b613e863ee9c5745512677",
    "dot-sigmoid-split-adc-truncnorm-settle-P1": "8de0afe78eff2701a74ccf4b423793570cdfcc5d24a7cdf433afdb511431f3e1",
    "dot-sigmoid-split-adc-truncnorm-settle-P2": "41ca3caeb9e0b0236af0027f455819d4f8320b86ce12d1dc13e26a587d47a5b8",
    "dot-sigmoid-split-bypass-lognormal-exact-P1": "47c7356e0ff7f42065876a064858d06f6e7af20291471d513173b0433e8b83c0",
    "dot-sigmoid-split-bypass-lognormal-exact-P2": "5d17fe2ba288e5e89a559345943be83b054e533e82bf7be751cae69964e2559f",
    "dot-sigmoid-split-bypass-lognormal-settle-P1": "93d0f1c786b4a4d1a352f11a13ff55e454f90e0e4a5ecf8a9627e618561a9343",
    "dot-sigmoid-split-bypass-lognormal-settle-P2": "e906d5b79ffc2e1f08ab4b0c549e0ca6a494b47a1fbb5562f75073edae9ac081",
    "dot-sigmoid-split-bypass-truncnorm-exact-P1": "eaa8328c23659dd7fdfb84c2578c10daafc9bf37e817d6b215e9f95eea129603",
    "dot-sigmoid-split-bypass-truncnorm-exact-P2": "f162df00c14bcbe98a1367a58a6e544b4114abe07639354dece5ee9ef3b61820",
    "dot-sigmoid-split-bypass-truncnorm-settle-P1": "48f1d01b195080d6f05269ac2c3f7baca0c71080b194b8ff8d57e98891227f5f",
    "dot-sigmoid-split-bypass-truncnorm-settle-P2": "6292a5f4c725af8892c32569e2d3a71fb27106618299f8c284dffc530d569f73",
    "step-ideal-shared-adc-lognormal-exact-P1": "00a85bc7e8f0a91d2ecbaa83b66f62a7bb6e1eeae054f229e8b145779e10ed85",
    "step-ideal-shared-adc-lognormal-exact-P2": "c6d352409d38d251ff69f1bd2758bb5ea03cf33ee26795327671f3cad444f6af",
    "step-ideal-shared-adc-lognormal-settle-P1": "19c70d6984b228bb74cbc87105aa15e4d2cc36ac9a3b3ac1553217d695c447d3",
    "step-ideal-shared-adc-lognormal-settle-P2": "45557c53469bf059a3a901f2fcda0cd382e846aa7e2dd8f29c3e6efd001743fd",
    "step-ideal-shared-adc-truncnorm-exact-P1": "c750ac24cb5592cd7ec48cd8ff275ae4648eade7d4ff9983a7f14cfd84549858",
    "step-ideal-shared-adc-truncnorm-exact-P2": "1c78c246096d241d9bf8a733dc0dc16210ff626377bbcc4b883ad9089117665a",
    "step-ideal-shared-adc-truncnorm-settle-P1": "bf8da7cb9d7334c328c66a1b2187b76dbcd3b20fa7d236e83b198aec2cf06930",
    "step-ideal-shared-adc-truncnorm-settle-P2": "b664873e911de588c8335a563c18ef502b601f1b0fe2162bedacc2bf357e60e5",
    "step-ideal-shared-bypass-lognormal-exact-P1": "715421d3298165b11d3e3228d678e63de628e4eedfed71cd793afd3dd5ee1627",
    "step-ideal-shared-bypass-lognormal-exact-P2": "4fc8eb135233a224361960301cf3251fdb83ea57213db8ef471bd716d0ac2060",
    "step-ideal-shared-bypass-lognormal-settle-P1": "e2122342e44b305bc88cd8a9975864657472e8abdc0ca8ee8a721c3efa5bf181",
    "step-ideal-shared-bypass-lognormal-settle-P2": "3c6e2dc00e761952c563cb8b5466da4ceb0318f640f61387ecf4b3242a844624",
    "step-ideal-shared-bypass-truncnorm-exact-P1": "092ec533cfc03c9cccb7fa361d71265393274b0f711c1b8ec6bc7bc3b1bef86d",
    "step-ideal-shared-bypass-truncnorm-exact-P2": "aa7c8d6a67adb15351c3e5bb021776f8ca1fb1004d7d83dffe5b9cc67005f1fc",
    "step-ideal-shared-bypass-truncnorm-settle-P1": "eeae84183f05627d4ec3e523265ad7a6b9d9cef0971e96d67a0918f056ac4782",
    "step-ideal-shared-bypass-truncnorm-settle-P2": "53451590b80aef2e7a204ada2ec9139ffe25d65cc037f8638a02bdc1dcaddb7f",
    "step-ideal-split-adc-lognormal-exact-P1": "bf05c63651ac41b7e73352b2c9348993d3ff8e6dc2321843991c09e91819ab7c",
    "step-ideal-split-adc-lognormal-exact-P2": "818544619c5c9e0a789cddd022eb73c1ed3fa8ddedadfe97fbe3114364cb88d1",
    "step-ideal-split-adc-lognormal-settle-P1": "bc189db051b38c07f21e026c945162fefc9641ec76e1c1be9e61ce30ef64a84b",
    "step-ideal-split-adc-lognormal-settle-P2": "1e5291c2b5e7445013351e7d94fec9c56fa8b2ae0329fa9a2b436195890b4cce",
    "step-ideal-split-adc-truncnorm-exact-P1": "9f46e5c755df387f469ced591946ca25fcb759695118e323e823b1f63c93d825",
    "step-ideal-split-adc-truncnorm-exact-P2": "4b7af73c4490aded3327c0b0916c810a7d0fcf04865c1f2e39603bb21a6cdb4d",
    "step-ideal-split-adc-truncnorm-settle-P1": "08501295b9b0a23619f1ea759ba407e64561495d67528bec7a41d66a9b55b567",
    "step-ideal-split-adc-truncnorm-settle-P2": "b21e123c8b02c67d38c3399925afbd0c9c4d602b9c877d3883e5d51343a00ce2",
    "step-ideal-split-bypass-lognormal-exact-P1": "bd3d229d3448c37d394b9d32e567014e359850ca6085694b898e8e406e59458c",
    "step-ideal-split-bypass-lognormal-exact-P2": "03bb1e3736163ec4d4c2cefc8f6cd050d1f4710537298f998ad405562212bec9",
    "step-ideal-split-bypass-lognormal-settle-P1": "e6073ebd8e5fc1af95aaa7bdad435cdd0684a9c560dd40e64610b4138a0fcd43",
    "step-ideal-split-bypass-lognormal-settle-P2": "2a6cc48492190d3f2a0c07e4cee791d6a9f4e8289f22615a616aa7a77fa105fe",
    "step-ideal-split-bypass-truncnorm-exact-P1": "7cd8acf3cb02f9a9a4b4ebf0b60b65c21e171ff15ec52b37fda4c10b1826cbf9",
    "step-ideal-split-bypass-truncnorm-exact-P2": "1653f84dbb108536d04d59164d8a848ef4bdbdd1af4d5de4ad8c71967e3b7fdb",
    "step-ideal-split-bypass-truncnorm-settle-P1": "a065d7a25cc27f808ec1161094c67fdb5c4671f50525f560f62dd233ce9d0fe6",
    "step-ideal-split-bypass-truncnorm-settle-P2": "3e59e486311e84f80a7ffae418c373c0512c4d56c2d058e9f76726c4e0875002",
    "step-sigmoid-shared-adc-lognormal-exact-P1": "8d801dc042469f605304f73e2719b92a1267fb9e4adb935e2c6f7a05e3b6084c",
    "step-sigmoid-shared-adc-lognormal-exact-P2": "dea3592fb3bff5111fc8489bbd5b0e7045535553e3ee1863eb94ec220ddebdc2",
    "step-sigmoid-shared-adc-lognormal-settle-P1": "73fc01274aa8809711afe46e0d1343fbd70a8a23c5fcc1a5ce62c790353e1e12",
    "step-sigmoid-shared-adc-lognormal-settle-P2": "bbd5749677c16d732815702981e9278b6131407c8cc78fdca0717328ce22632a",
    "step-sigmoid-shared-adc-truncnorm-exact-P1": "a35824b9e1a84af33bfdaae56f94173be7311cbf36686c62e56ba2b522a8aac7",
    "step-sigmoid-shared-adc-truncnorm-exact-P2": "c3777a1f1f78cb3fa35d62cf4d4766a28bd93ae378af8b30173c5b73702ad19c",
    "step-sigmoid-shared-adc-truncnorm-settle-P1": "f2dfa3672aa632f77d723d9142feb012111a8cf9e8a3021a30bb770859844324",
    "step-sigmoid-shared-adc-truncnorm-settle-P2": "6aa259f9ec73380ab7f07db7e2637fa51fa89d2a94bea33c28f6eab0c76c8c9e",
    "step-sigmoid-shared-bypass-lognormal-exact-P1": "4b68c82424bf730dea641ced699b8586300faffd505513dac94c148ccb6e033e",
    "step-sigmoid-shared-bypass-lognormal-exact-P2": "8b02b4b889a5f7b701f0f0e6b442fdd9ae95ba45a5184164ff757667db0b14bd",
    "step-sigmoid-shared-bypass-lognormal-settle-P1": "ccf70a1f8b54345ed9c036e73b36c0ac56066743d76746c9bca24cf450297ff5",
    "step-sigmoid-shared-bypass-lognormal-settle-P2": "9939a0d92047887a9ba8c7909d9f6ba9892c80c0700922242d4428745625f993",
    "step-sigmoid-shared-bypass-truncnorm-exact-P1": "024a287a24e36129fa90c4bb89342e131bc342e912bb427170466bd20f7f16ab",
    "step-sigmoid-shared-bypass-truncnorm-exact-P2": "f005e33f768f8b2d1c4b1832c48cdfdf66b5cf44c6b44b65beced34f121d5738",
    "step-sigmoid-shared-bypass-truncnorm-settle-P1": "820e59fea73b9f1db6d7c927cf1339d806b359848616e2e39d6521a29c80d4aa",
    "step-sigmoid-shared-bypass-truncnorm-settle-P2": "ad18fcb12bfb71a61951d3559c1214b91a238a7c4c50b2eb9e56746afca89031",
    "step-sigmoid-split-adc-lognormal-exact-P1": "08557111f5290d91cf743fb5fb0a84c632895647502005cd610132c10d31c4d8",
    "step-sigmoid-split-adc-lognormal-exact-P2": "8dc3e3cab0315071870d2f81cdd5174384a70837c964da0ee25c9bd0bb7ec3c3",
    "step-sigmoid-split-adc-lognormal-settle-P1": "b5c454380822afc65db638cebfaf43f9d086adcd070b90697d647cb466f3f4ff",
    "step-sigmoid-split-adc-lognormal-settle-P2": "a9d29d0f856584098d3725e563ca8ec6634cc3024cc27974ddd15cbcdc3d428a",
    "step-sigmoid-split-adc-truncnorm-exact-P1": "ad7c395f339d91f7bf601737e1428d3a470025476eb3800c93c352288bcb481f",
    "step-sigmoid-split-adc-truncnorm-exact-P2": "2c8d728a24a1d968bb798226778b02dd320a4d35130182478555bd197dfe4e0c",
    "step-sigmoid-split-adc-truncnorm-settle-P1": "943bdb7e53254f667a6671a1b6d1ed1d1323e8f826659b56b79ac2258e1bd7d9",
    "step-sigmoid-split-adc-truncnorm-settle-P2": "1cd643e924f89c5805dd119cbc323e803335541150545d8e67dcc171efc51225",
    "step-sigmoid-split-bypass-lognormal-exact-P1": "681f07e9fb0f3b158eb7c7ccc50254f66dfdbed75b61c4022d8443160c641381",
    "step-sigmoid-split-bypass-lognormal-exact-P2": "b69a786cabdd67f88f47626d91b748aea306438eb037f95be999b82e3ca274bc",
    "step-sigmoid-split-bypass-lognormal-settle-P1": "ca099b8ec9c79849c3be9bc857f993b13a752a1326ce102ddeecbe938b26b873",
    "step-sigmoid-split-bypass-lognormal-settle-P2": "1ca99b77126380354dd8b697793a8cce10ea959a48651b7bcadda184eae3aebc",
    "step-sigmoid-split-bypass-truncnorm-exact-P1": "8d33e81dc5f9fc9d7f1832f2bfdf29f23ab3b041531e15f5238ee3c95c677c0c",
    "step-sigmoid-split-bypass-truncnorm-exact-P2": "404e4e9d808775a6c84d110060f38188016682b62bfb0d70cb2d84d116390084",
    "step-sigmoid-split-bypass-truncnorm-settle-P1": "63f45c3962ca29ab8710d858d47851a051befdd680ddc75d7b3554d59ed98bea",
    "step-sigmoid-split-bypass-truncnorm-settle-P2": "bfe1ab369da5549b7a9fcc5227a93b0c239fcbfc32c72ba972152979a4fd3b0c",
}
