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
    "checkerboard-ideal-shared-bypass-lognormal-exact-P1": "f3d79c6bf4952b1333a7bcd7d3514e5a41a70d48f6716bdf3327a8882a542c27",
    "checkerboard-ideal-shared-bypass-lognormal-exact-P2": "e73a6fe7a5653a83e51dbe0dbda4211afbddebc9bd7c3542a4626b61012e50d4",
    "checkerboard-ideal-shared-bypass-lognormal-settle-P1": "38400770012771c1f765300acc26cf493dd4661d40bec104f878f5c3be24be04",
    "checkerboard-ideal-shared-bypass-lognormal-settle-P2": "6e82a1637ecc0f9a9b049433b4e6b4c2d12ee814377ae6a425ce22a6eb13cc89",
    "checkerboard-ideal-shared-bypass-truncnorm-exact-P1": "ce9b302d8f5152e62c6046efd06ee8addd2830fe5e6b94083c00b0c1ce59e8d1",
    "checkerboard-ideal-shared-bypass-truncnorm-exact-P2": "e3e4e820cc48cfec854f89b6e05a54844a1f80acd91ad93a285caacbca9bdd4a",
    "checkerboard-ideal-shared-bypass-truncnorm-settle-P1": "b2d60993d815bbe900d346afff92cb6a3e2c6ec52ce957bfab96110e69c3f6cb",
    "checkerboard-ideal-shared-bypass-truncnorm-settle-P2": "e91c2bc14c3e84475b5b4c6101429338213ca0fefc10ba22044d462a4e144283",
    "checkerboard-ideal-split-adc-lognormal-exact-P1": "025eacfb6b4d1f06eb09a236bfb523b5c7dcd35b927b657fae1345a3df122bd0",
    "checkerboard-ideal-split-adc-lognormal-exact-P2": "e092b01a0f137c881732a6adbbb501ee12ea0621e5ff9d1069632edab0533e24",
    "checkerboard-ideal-split-adc-lognormal-settle-P1": "8ab4fc9c2437c81a55aaf765ffe7dd2771b016563cfed722e425187868774f05",
    "checkerboard-ideal-split-adc-lognormal-settle-P2": "0d803db11ed98c714d6f2f70f5ce86e238097ede6faafa130eff75e09438c6e9",
    "checkerboard-ideal-split-adc-truncnorm-exact-P1": "07cced5a1a830c899ab90bc00e3de8450efa224dbb6710c2309b170935d0ef65",
    "checkerboard-ideal-split-adc-truncnorm-exact-P2": "910645953ac48695669d94b737a102d6070e5e8719e4b2c5366c38a3ce1e1305",
    "checkerboard-ideal-split-adc-truncnorm-settle-P1": "c01b47b1c891fa9aac2efd1539f093e2810ef4c27cce8277dc487d51a787cb79",
    "checkerboard-ideal-split-adc-truncnorm-settle-P2": "f00fe0208c4ba8c2ca4d6eb68226d2ed4641d40912e626762033f8bba8716cce",
    "checkerboard-ideal-split-bypass-lognormal-exact-P1": "b8b84a7e1513d75b622f9a8f096c2c763fcb0cd9e1bd555810b493a421c7c612",
    "checkerboard-ideal-split-bypass-lognormal-exact-P2": "9351c16fa9f3812a6b33b4b26dd0497eee90b9fa78731995f78eaeb030447081",
    "checkerboard-ideal-split-bypass-lognormal-settle-P1": "4c251c8d44b5c2348a55847766210f599b33bbeb3faf810c97ebc8619543671d",
    "checkerboard-ideal-split-bypass-lognormal-settle-P2": "8ac55fc0d8b10c6abc2b4cb42313871834664b100594597c33bd316c5f7ec95a",
    "checkerboard-ideal-split-bypass-truncnorm-exact-P1": "4331dcb03f3c677eba7ab849446dac8cd7d81947b7d53adf1be4c0885af5b00e",
    "checkerboard-ideal-split-bypass-truncnorm-exact-P2": "c3bfce30eb62cd191338cd976931611559f2082a910ffc4a7f1a4c44a9a27785",
    "checkerboard-ideal-split-bypass-truncnorm-settle-P1": "ded0d87d512fa273603abf134c6a6c238a1422af61e9ffc98274af53b3c81994",
    "checkerboard-ideal-split-bypass-truncnorm-settle-P2": "7e8416e2181445158f919515b0c2f16b5b47d63998c9978a8b27dd366c1316bb",
    "checkerboard-sigmoid-shared-adc-lognormal-exact-P1": "de95d25fce72db611f6ada9273064d8ad29baee7ab8ccf10c6cafb2e759fc95b",
    "checkerboard-sigmoid-shared-adc-lognormal-exact-P2": "da6e33e42cb21388f017e2f573f1573551dfaec03562474926d36dd4c44338e7",
    "checkerboard-sigmoid-shared-adc-lognormal-settle-P1": "45ef3155bfe603ae4101bc6c247d586e43aab6fbd76ec4d437c42bf2ab20cb44",
    "checkerboard-sigmoid-shared-adc-lognormal-settle-P2": "912138220e8a70434e52764fd0495c8a67991d63e24ec81283ac7f4601248795",
    "checkerboard-sigmoid-shared-adc-truncnorm-exact-P1": "99cf103551bb1496b762aa3fe2a95ba57df0f078b93f82b9e11b4cf4355791e3",
    "checkerboard-sigmoid-shared-adc-truncnorm-exact-P2": "2b95edef34c54b61a2122c28d784c37cca75f6a37d64ddb5d9fb1d8ef1ea877f",
    "checkerboard-sigmoid-shared-adc-truncnorm-settle-P1": "8b3a6218bc6c1da2591d46f850c00a2e62eb6b3b7e2e50d771d8fa12f0017e47",
    "checkerboard-sigmoid-shared-adc-truncnorm-settle-P2": "7c7bb2f3326afcfff0366242281fc6dd8c429c3aa26a11b407ef813ab910feda",
    "checkerboard-sigmoid-shared-bypass-lognormal-exact-P1": "d04432302c47ceac43abb5ed5533b5887b4db0f6c320f6f6d6955931b26a6127",
    "checkerboard-sigmoid-shared-bypass-lognormal-exact-P2": "e0f26de64fd62b5141b6f85b9b80608bfca8c6d9254afa69faf1932211858993",
    "checkerboard-sigmoid-shared-bypass-lognormal-settle-P1": "7fccc1678a5b9d28c323494221c3d5dcc1e9067c64922f901a991f97a00865ce",
    "checkerboard-sigmoid-shared-bypass-lognormal-settle-P2": "086f624fd5e8f4ee2c45d58628e6ea4b52ebe6fb830417648516d1cafb50237e",
    "checkerboard-sigmoid-shared-bypass-truncnorm-exact-P1": "e17df95d260064e1b3671a547b5ce1a1e6728c3f95c323a3d710e5bdea6c4883",
    "checkerboard-sigmoid-shared-bypass-truncnorm-exact-P2": "c81b3b10b9bfe35de88b40d7a90b7f858a9305ed6d9fab54cd44f89d60b19c55",
    "checkerboard-sigmoid-shared-bypass-truncnorm-settle-P1": "8b94f0042f5b9bc5f393a51409de45f20e648f740e6adabe8fec700465b7cd87",
    "checkerboard-sigmoid-shared-bypass-truncnorm-settle-P2": "37df33a2202d365885d4c1d3997d67c625fd129d112e6ea80982fbde492bced0",
    "checkerboard-sigmoid-split-adc-lognormal-exact-P1": "ea333cc10379daede7a70851eb3682f000c5f896f3d43767c2dad260e573e7ed",
    "checkerboard-sigmoid-split-adc-lognormal-exact-P2": "e7259da033f4c038bbfd96ed28ec05b20f46d445a4d928374f6b7c1af4631771",
    "checkerboard-sigmoid-split-adc-lognormal-settle-P1": "fa8c9d66759def3955f5f66e319be00124fe2d567ec1f5cfd90d094a0a02f91d",
    "checkerboard-sigmoid-split-adc-lognormal-settle-P2": "ff588eb402c51c6ea19a8ac33bbfef420a758d528ab61744efe2a23c1bedb267",
    "checkerboard-sigmoid-split-adc-truncnorm-exact-P1": "0e2737c816b6190739728a0895d9e3e920fa372c32f1080d8443122b0b026ddb",
    "checkerboard-sigmoid-split-adc-truncnorm-exact-P2": "2d4aa25f449bc96b55a4a71f84f600d0e32406e8f62817111a97b3eb859b75eb",
    "checkerboard-sigmoid-split-adc-truncnorm-settle-P1": "8a495d1673a45d614bd7205274461f0281eacfbca8fb00ba62624f95a23419f4",
    "checkerboard-sigmoid-split-adc-truncnorm-settle-P2": "6d411ab4d4cd397ae3061153880d8c5a240b4b1ac081a03a114553416ed16711",
    "checkerboard-sigmoid-split-bypass-lognormal-exact-P1": "74471c02e5fb3bed1f5ed3c6d7aab9a61fc644da176963bc118a00883217dbf1",
    "checkerboard-sigmoid-split-bypass-lognormal-exact-P2": "65b243b085d3e935061af98186f05b723ce29b3103e742fd2571356b27c40914",
    "checkerboard-sigmoid-split-bypass-lognormal-settle-P1": "0e7fc778f894681fc09a2679c2fc995f2f5df0aac8c51b42e49d119992f902b7",
    "checkerboard-sigmoid-split-bypass-lognormal-settle-P2": "89762623193626d9f149b141e21adbcc6f66be24b8838ce80f5296430324079f",
    "checkerboard-sigmoid-split-bypass-truncnorm-exact-P1": "ab1317f4082a897479aeb1bfaa8ecc15974dc033ad50c75281ce72e5cfd3d15d",
    "checkerboard-sigmoid-split-bypass-truncnorm-exact-P2": "87b37072fbc6adec65bc353664f827d4724725566ab2eb2796c836fa51f90b9c",
    "checkerboard-sigmoid-split-bypass-truncnorm-settle-P1": "9c1b99e8245f8045a897e5212a44377dd9f039ecb6f510e06888f86fdd4277ac",
    "checkerboard-sigmoid-split-bypass-truncnorm-settle-P2": "57f8eee235474deb1447e63aaa17cf300ba4ea216b8665f7169d0b05b4d6b0a7",
    "constant-ideal-shared-adc-lognormal-exact-P1": "311c9bf0c4758ec0f2b86966c51127f8809b93882ef7d1826b10f89da6269f74",
    "constant-ideal-shared-adc-lognormal-exact-P2": "83457f990e4424291b2147dbafd26379a037d5c14a75244949798f5cfc4dd09c",
    "constant-ideal-shared-adc-lognormal-settle-P1": "22d98317dfbf9a23504e71b7f5c4dfaff46c7d286327de0a846ee5f02211e742",
    "constant-ideal-shared-adc-lognormal-settle-P2": "246a03084a72c8e55428c78cf9afce3985483d2c89b435cc52ed877b9dc3a9d5",
    "constant-ideal-shared-adc-truncnorm-exact-P1": "d08f6b49c21a66a796bb297eb113891b88a1e8904b4cf0281805072b336855f0",
    "constant-ideal-shared-adc-truncnorm-exact-P2": "268a7b5871ebcc65453eea2529ac4b079533e50873fd87377a6616a9d0d44535",
    "constant-ideal-shared-adc-truncnorm-settle-P1": "968d381fb611f8ba41a7bb68e819d2921f260f155c78ba7d5b7d88da07f3d66d",
    "constant-ideal-shared-adc-truncnorm-settle-P2": "07b34aa5d5d073abd4c4a7aaf90a240a4a588245bf92d2adefe41e1a1d6f7515",
    "constant-ideal-shared-bypass-lognormal-exact-P1": "5c29da8f8a1cad13e3a97ecb98c595b35443d1db623ac05e554d5d613635ca1e",
    "constant-ideal-shared-bypass-lognormal-exact-P2": "1d0a63e4d8bb80406ca92a0e6bdb73c4d27cc33f2ec7e6880a5e9b755daac6e9",
    "constant-ideal-shared-bypass-lognormal-settle-P1": "78e947fd69eeff220cbfc2de1677d8d3082bc586dbb06625f20646907e949a66",
    "constant-ideal-shared-bypass-lognormal-settle-P2": "4af04e3e68929d9546fc63cfe21c0fcbbffd248a1498e9b24ea7cc75baebfc3e",
    "constant-ideal-shared-bypass-truncnorm-exact-P1": "ccce95283f6503bc37c894f06a9526f7d4da6ded820b5b6947b8b33e48ab4268",
    "constant-ideal-shared-bypass-truncnorm-exact-P2": "173a18b46576f7ea80de61dfb69607a5ddb80c605ec221c4007827f988719790",
    "constant-ideal-shared-bypass-truncnorm-settle-P1": "1b18b0b2cace65c5007bb1e097ef2d032e25f6a9d1849fb4dbd41939564655d1",
    "constant-ideal-shared-bypass-truncnorm-settle-P2": "e643415f788db1d1743155bd840587c50e4d99510039b8bddc6adf6504e7f3fc",
    "constant-ideal-split-adc-lognormal-exact-P1": "5e1791794e2a95274419a78fcfe92d85236bdd4840b8fbe8bc8c8131fa7e2a86",
    "constant-ideal-split-adc-lognormal-exact-P2": "ed67d21e58f02ae7df9db9058bd98e3370ad4ac98edc94d200bb2324ec6e9767",
    "constant-ideal-split-adc-lognormal-settle-P1": "1d7936353674e8e3df9a2da043e458a0381ce692f4a929ed81ee22a3c59043e6",
    "constant-ideal-split-adc-lognormal-settle-P2": "2eeed847997cb19ae098b10f3efb1c982fbf8a7015a671af36a1e0045ac2499f",
    "constant-ideal-split-adc-truncnorm-exact-P1": "8a552055996b1fd3f038ae2036d05cdd22f35f5f8e422ed0fa1b19a58ec259a6",
    "constant-ideal-split-adc-truncnorm-exact-P2": "f87cd66254065859a382d5dbfedaaf9528a526f995765adf613f93520c126b52",
    "constant-ideal-split-adc-truncnorm-settle-P1": "5c8c3b268551fa3ccd37b38fc13cdd62514ed0b0a80cf0327cdcac2928c8a0c8",
    "constant-ideal-split-adc-truncnorm-settle-P2": "d7c2cc9bbfb071ae56c3f2d8a9db692b3478acd17451b6325f59b9b903e5f891",
    "constant-ideal-split-bypass-lognormal-exact-P1": "ed740957f052922769350a6fa45a55c07f752a8cc6b04064fe300c1ac1950baa",
    "constant-ideal-split-bypass-lognormal-exact-P2": "62a4c04d581250ac2c4d5759c4108e92a9ee94af34f2848367e7797369af5432",
    "constant-ideal-split-bypass-lognormal-settle-P1": "e8402d5242b89a5b9ce5e2b99e1d8f2cbfbec2894ee57313ee1adb9336eab40c",
    "constant-ideal-split-bypass-lognormal-settle-P2": "239f87229470321fb316cf4e751aa9aa2b6b3f1eda636a633a728a81dbe920ce",
    "constant-ideal-split-bypass-truncnorm-exact-P1": "ec867369742dd1238c0d916e613b720e528a0f5592d752184eb96b8bd78860ee",
    "constant-ideal-split-bypass-truncnorm-exact-P2": "45a58d0fba0942100794fcecd99fe4aea26c4fa2f15148f6f72347c2d48a29bf",
    "constant-ideal-split-bypass-truncnorm-settle-P1": "3876a519557741e6a9b31b68535b3672d540642c73fc270bdbe4e23951d79b39",
    "constant-ideal-split-bypass-truncnorm-settle-P2": "94fcf21d0ca260d7d1cac47193377059d0d7b23c316d36ea81d5247fdc00a0c9",
    "constant-sigmoid-shared-adc-lognormal-exact-P1": "3814442d77b65d7871ca686704f8fe3b1691b9b610eb531c5af3038471c33618",
    "constant-sigmoid-shared-adc-lognormal-exact-P2": "a41489efc5806f59ac6f74e096a5d83a4063e219268e59646a57c620bac893cf",
    "constant-sigmoid-shared-adc-lognormal-settle-P1": "3ae0e679b29936cb51da2e26003635d0997a09717a331991f0033f50ce66276b",
    "constant-sigmoid-shared-adc-lognormal-settle-P2": "f3c1e941aaceb5fc1989c67c43f660d3344ed6dc3a5e9410f1e94ddd1e43404d",
    "constant-sigmoid-shared-adc-truncnorm-exact-P1": "b2254932f8269353af67245840727e01807f51c2baaf9ef974387fac2a445663",
    "constant-sigmoid-shared-adc-truncnorm-exact-P2": "db62e6c7e0ea78ceb29868782fbbcf02fd32942bf9de32fd7235843edc4bcbbd",
    "constant-sigmoid-shared-adc-truncnorm-settle-P1": "91b588482518c1c056988cc81d6168119e26cadf53d9b534382fb08ba313ca21",
    "constant-sigmoid-shared-adc-truncnorm-settle-P2": "0f2f15248ff9fde6ccee7acbcf67f33d510a5dd0a836f154072eb361df73e54f",
    "constant-sigmoid-shared-bypass-lognormal-exact-P1": "5f49b4d8d825e9e5327212bbbbc8b4d4a034be13303683ba01083e25d0b7444a",
    "constant-sigmoid-shared-bypass-lognormal-exact-P2": "e5176f021f4cd6ac5b1aa89e7152583d188b62151b82bcd14edd4b5ec062ef28",
    "constant-sigmoid-shared-bypass-lognormal-settle-P1": "8f14f31558987ba5218591fba117e4f549713d7cfe2a19aed3c4fd9aefbb12e1",
    "constant-sigmoid-shared-bypass-lognormal-settle-P2": "01cf1828d098a95b87b84100662eb6201adaebd8919c752dd850cc53321e62a4",
    "constant-sigmoid-shared-bypass-truncnorm-exact-P1": "dda0a0a597e880a6ad245565193f87910fc452e925fd358fbe21efc1a7e86ebd",
    "constant-sigmoid-shared-bypass-truncnorm-exact-P2": "f9d28f420f97b95d8815b7b2442514841afaf28c06fe9f59f9efcb95b7dfb548",
    "constant-sigmoid-shared-bypass-truncnorm-settle-P1": "51d1255abde07ebfa6c36a6e752d8eb8c571960cb1d2098ebef240f160b61087",
    "constant-sigmoid-shared-bypass-truncnorm-settle-P2": "bfdf1a4156b12b761e2f746130cab17977e438440472e53b419a874f81876869",
    "constant-sigmoid-split-adc-lognormal-exact-P1": "d531f921163869f2292e154b0f31b1124ad9b803841645fa057b7ba301b2af85",
    "constant-sigmoid-split-adc-lognormal-exact-P2": "3fe8e4670a2fc8957d5bd9483be4d1fec29ee2ed5cd4c7446ce9cf5ee8d28f46",
    "constant-sigmoid-split-adc-lognormal-settle-P1": "977d17f0516ce0b8dea60a4920747b9cbf45ec0358e93da6cb9b15dd8b175a14",
    "constant-sigmoid-split-adc-lognormal-settle-P2": "c18160d584be86455401c1498a29c20683a8d7657a28b86b6fa12c3000caed8a",
    "constant-sigmoid-split-adc-truncnorm-exact-P1": "f0f8019e3134462a7f77cad9a2beaf6e24116563d0a954573cbe8c15c536003f",
    "constant-sigmoid-split-adc-truncnorm-exact-P2": "ee0d205ff0d8df54b0597c91e802e46f548d11942dab22d0ab00d440549efb22",
    "constant-sigmoid-split-adc-truncnorm-settle-P1": "627e7d74167e3ea8c3f906c060567c39ffb38cde8e4bad4c05f6c6aaffc3d127",
    "constant-sigmoid-split-adc-truncnorm-settle-P2": "00f83f369b0848ee1f6b777aea40eac2161f3cbe81d43f813edcefdb8ac79647",
    "constant-sigmoid-split-bypass-lognormal-exact-P1": "4ad13df8bbfdbcc7e292fc1d4ae440c0d7b377bfa2cb93a5e53d642401d80b17",
    "constant-sigmoid-split-bypass-lognormal-exact-P2": "0b67d945b28ca4514f90aefff3dcaf86250a14f245a43e6879f7151365d4072f",
    "constant-sigmoid-split-bypass-lognormal-settle-P1": "1e80ea239d4e866d8daac0b330da0817c305b52bec82f072a5c1f25607d450ef",
    "constant-sigmoid-split-bypass-lognormal-settle-P2": "e8c0e0da5bca9899dd61bb74f8ab700ced892ce6d2256c33fcdcc1fe125ee1e1",
    "constant-sigmoid-split-bypass-truncnorm-exact-P1": "22d5d7e5600096726afe1102bc510c83682ddcb19f21de8b7ba2bc03baac9b0d",
    "constant-sigmoid-split-bypass-truncnorm-exact-P2": "2cf93228355f8a36e8b6f7b8315b211954b9240ab0d46a8b37103c5149993a34",
    "constant-sigmoid-split-bypass-truncnorm-settle-P1": "a98e2a5400aa2b405630c347459d95385df5f54327f2413dd0e653c2822989ec",
    "constant-sigmoid-split-bypass-truncnorm-settle-P2": "74f0c9ffac4a3ce0167c67ccfcb12a34551b335dc2ec88a7a44777add277b737",
    "dot-ideal-shared-adc-lognormal-exact-P1": "f9d13ee5426aea76e578ae31411cbbf2c01017edaae3886ab46cb5d8cb21a439",
    "dot-ideal-shared-adc-lognormal-exact-P2": "b236ab0c47d8a38510d6d23a8065262be45c4bea01643910e384a7a8b95fa3d4",
    "dot-ideal-shared-adc-lognormal-settle-P1": "9c419f17a311aaf951ff1cc5206ae9e2559e27cd73b93213ce1e40df7e6973c8",
    "dot-ideal-shared-adc-lognormal-settle-P2": "be66a4f231d1bfe001f3225fd934b7074c5c573f61225406db632b8adf2f725f",
    "dot-ideal-shared-adc-truncnorm-exact-P1": "e54988f3d541edce8e95b83f1ef6a4f212d2093b95bc88b130cc291a21b0cf60",
    "dot-ideal-shared-adc-truncnorm-exact-P2": "3b2cc7234dee06df40d5fd9fcdf656453fd9bcdaa68fccb0b943dd7c23239e38",
    "dot-ideal-shared-adc-truncnorm-settle-P1": "859bc855e9b749de9fb51c374671e5b8bf438a602d4c57e67873a666df419a85",
    "dot-ideal-shared-adc-truncnorm-settle-P2": "6ba9d36676b2141c4324d74150fd094980d29342d0e076354630e11f54199680",
    "dot-ideal-shared-bypass-lognormal-exact-P1": "5457759927f10ad2b3656674da245f8bbd494238c5dce25aa7e115c98ceb10fe",
    "dot-ideal-shared-bypass-lognormal-exact-P2": "7480b745678e898857dc02502dc107fb93a2fa87b3ea86659b0035a123418092",
    "dot-ideal-shared-bypass-lognormal-settle-P1": "23068d6944abb34c1051a9095c86ea893b10fdbd4fe194cc3c8ad4555fa3eac9",
    "dot-ideal-shared-bypass-lognormal-settle-P2": "d05fd3ee05586bd41cffc3d3155b402a96fe87b3eb80d68538c66dae69cbb69e",
    "dot-ideal-shared-bypass-truncnorm-exact-P1": "80672af18d436c19aac689d6e983fa29eaeed19c122ad6244304ff7ba3fa24ac",
    "dot-ideal-shared-bypass-truncnorm-exact-P2": "d38e1488de0b383312bacb257b105f97694d9c4e093aeb9b5d55364755255bb5",
    "dot-ideal-shared-bypass-truncnorm-settle-P1": "5eef8ed2e7dc8fb131a8f646f8edf127c342dbbed1c157bf97843d1c997ea23c",
    "dot-ideal-shared-bypass-truncnorm-settle-P2": "6cb6db3d4da67fcd7a388c4527de343a28152044694bb6ba2a6b59a38c091b53",
    "dot-ideal-split-adc-lognormal-exact-P1": "33c9716769f3957ecf0809f072c0f7f149cbbb1dec2133ac1d140f5e7744f2de",
    "dot-ideal-split-adc-lognormal-exact-P2": "21869b7e2107d1eb7822bd710c4d907b3b03b702b44c022ebd81ed389c30e447",
    "dot-ideal-split-adc-lognormal-settle-P1": "5ac7a215bd2bb836bca9466988ba2ec2289a0572c3500065e02d52b8ead1c66e",
    "dot-ideal-split-adc-lognormal-settle-P2": "802b39900083c61a7fc8aeff693ff00e03bf81e1a9ea89c3426dda060fe70692",
    "dot-ideal-split-adc-truncnorm-exact-P1": "f721e0d85ccb9f2363012718876d4715af76664371c712484e3f8adca42b8932",
    "dot-ideal-split-adc-truncnorm-exact-P2": "c62e8f784dbf9b78654ee00a4bd75a86bb9ad94ab0d37ad64d877d815c239c31",
    "dot-ideal-split-adc-truncnorm-settle-P1": "b4116ab0265d2eef1fc29e71e27e0f26cd36347050adc0227c8c1f10309e97f3",
    "dot-ideal-split-adc-truncnorm-settle-P2": "4d9e0d82ae9d8191971680b92eb3340c53f99718ffa5b7fb4659d1bf47554045",
    "dot-ideal-split-bypass-lognormal-exact-P1": "5f17009c87e091f649a70d62e94005f418e58f5fd08b61c2496bbe692e8a918c",
    "dot-ideal-split-bypass-lognormal-exact-P2": "5c494aee26bcda9f93d1c6e7acc67e40e761f63902a0a52fbb909100fe5ac47d",
    "dot-ideal-split-bypass-lognormal-settle-P1": "fffc1f2b6694dca1305a94fdfe54f0b0f6454d16b9c18d19d14fea7ed29f87a4",
    "dot-ideal-split-bypass-lognormal-settle-P2": "8cf62655f86379e3ad7c679ecfb71d24746bc4668cf0b5e12ab9760a07a0bfb9",
    "dot-ideal-split-bypass-truncnorm-exact-P1": "517e08fc132e00fcb96483c6c87f010df0a694ad45c3a2603a1f9cf629b5af0a",
    "dot-ideal-split-bypass-truncnorm-exact-P2": "96e56a82a06b3aa04c65eb04782765cbbf1e6e637a2f7cd8ac457eaec1afd37c",
    "dot-ideal-split-bypass-truncnorm-settle-P1": "3d1687e12d3e6b1d3fa4d50d87bc1a9a6dff54ce905b4503d10dd7f2f02e5d4c",
    "dot-ideal-split-bypass-truncnorm-settle-P2": "3a29d0ecc0bd806d64aa84446149621ac86dc3e97e850989de4e1afc98dde4b7",
    "dot-sigmoid-shared-adc-lognormal-exact-P1": "c894b8ae42936c0e92bb65c5c7792858d1147b42be912ad9077a74cc3bbb0a5f",
    "dot-sigmoid-shared-adc-lognormal-exact-P2": "80ef48caa8c54216c846c3ff7af46477d3a3a66c390018256618ffbccc4b19e8",
    "dot-sigmoid-shared-adc-lognormal-settle-P1": "ca33ce618e54ce89f08db2de756ee3445ab9b764413caf4993feb889b5dd6e21",
    "dot-sigmoid-shared-adc-lognormal-settle-P2": "94117749918d41264d8ba2e8e7a904a03f1c91e5d65d4735a896420ab3163659",
    "dot-sigmoid-shared-adc-truncnorm-exact-P1": "36ac0c52947fc74bf2ecb4070b8e006956c05aa641fd6d795a9d242f9f3c94e2",
    "dot-sigmoid-shared-adc-truncnorm-exact-P2": "d8fac3e149287dc47463d528ccdd126efcbc23cdbe8f4fa53e1ffb58120ec7c9",
    "dot-sigmoid-shared-adc-truncnorm-settle-P1": "dcc10b7da318a3eb488b1a696db481d81267b7d8f3062827c376f522fae0744e",
    "dot-sigmoid-shared-adc-truncnorm-settle-P2": "021e78a276e518cdaf7c99adee65ce88ba7f4faaf01defbc559cfcb2f88e9c3d",
    "dot-sigmoid-shared-bypass-lognormal-exact-P1": "851d39c9a1f1b6d85b2a755448c6f277b7e55973a560130af15fdd684f89034b",
    "dot-sigmoid-shared-bypass-lognormal-exact-P2": "fad0193ff961f613856d528e717c47d4780aa4b9561c7fb8204125278e92c79c",
    "dot-sigmoid-shared-bypass-lognormal-settle-P1": "7aebd5646e256880344d94e94f1fd7ab1465715802e38f8cff7e218e3128bcaf",
    "dot-sigmoid-shared-bypass-lognormal-settle-P2": "ad305c48134fe3c554da581571924ca1ca9abc3b32bc9cd6536b0c6311935114",
    "dot-sigmoid-shared-bypass-truncnorm-exact-P1": "b1b42e60a55b5f93dfc5c967f6617dac5c30239ffe026aadc0a1e8e8b4e57fe7",
    "dot-sigmoid-shared-bypass-truncnorm-exact-P2": "a4cc995bfa790bf85b3fd18ffd52ef7b179b52c53018436cd205697c44ae5253",
    "dot-sigmoid-shared-bypass-truncnorm-settle-P1": "0691ee6b34cfdddfcf068001a6442cae57ed5609c9030d2033c65ccb2f11847d",
    "dot-sigmoid-shared-bypass-truncnorm-settle-P2": "2523ba04517b434b1fe7c09f307e42f030a5ce7a028aa2b96fa9ed74c5db2c25",
    "dot-sigmoid-split-adc-lognormal-exact-P1": "637a77d09b471a5e09bcf533e61db3b3eae031d4eb6301df1bb1b3b811769cad",
    "dot-sigmoid-split-adc-lognormal-exact-P2": "9a6f04ed1f576a7c6d9dfc34c33f39f7864ddd6a60dc5de2ee0fef3833bab98d",
    "dot-sigmoid-split-adc-lognormal-settle-P1": "46053ee884c6bd6f4d4f70cb2566a1f6ea45f38804d46ea9d19aaf42b10ce7e9",
    "dot-sigmoid-split-adc-lognormal-settle-P2": "9a6f04ed1f576a7c6d9dfc34c33f39f7864ddd6a60dc5de2ee0fef3833bab98d",
    "dot-sigmoid-split-adc-truncnorm-exact-P1": "fbeb7dd57b3c2d75c0a2b7ff393a4ba5a0398c4925575609ea5289a32380b54b",
    "dot-sigmoid-split-adc-truncnorm-exact-P2": "7792391d2c74886ede21594f22461b883081f5ba67b613e863ee9c5745512677",
    "dot-sigmoid-split-adc-truncnorm-settle-P1": "8de0afe78eff2701a74ccf4b423793570cdfcc5d24a7cdf433afdb511431f3e1",
    "dot-sigmoid-split-adc-truncnorm-settle-P2": "41ca3caeb9e0b0236af0027f455819d4f8320b86ce12d1dc13e26a587d47a5b8",
    "dot-sigmoid-split-bypass-lognormal-exact-P1": "e0ec7419c173fb21655d85174c00f34101f76b40a08d794ac62a157b4a72ad78",
    "dot-sigmoid-split-bypass-lognormal-exact-P2": "6dcf925eb4414f8140e44d4cabc4434337cb90840a3b84f4a9f847e19721f253",
    "dot-sigmoid-split-bypass-lognormal-settle-P1": "0f9a0109c3b47086e2f7d1a2f82d644a87aa5a650d12aa4c1145da81b88e1f8c",
    "dot-sigmoid-split-bypass-lognormal-settle-P2": "feda70126cba87a272fea1ea83add27ae80da883fc0916ffd8c0d9284cd5442b",
    "dot-sigmoid-split-bypass-truncnorm-exact-P1": "6ab5d8ce779751b16ee3f66cfd6d010868c57ae1ac3e063a8e060732385a3ead",
    "dot-sigmoid-split-bypass-truncnorm-exact-P2": "40b34c002f6d2a47b0c930c909961441f29b6dc6e6589a7c1f3d47fec680a639",
    "dot-sigmoid-split-bypass-truncnorm-settle-P1": "1eb6f2f3a6afb05f2399aca9b1037cfc662dc3376bd22d1937415d7451b78123",
    "dot-sigmoid-split-bypass-truncnorm-settle-P2": "79ae861cf7aa3d60a3fb12cb9790de5e8e7c96406e79ed559c2738a761db3e4c",
    "step-ideal-shared-adc-lognormal-exact-P1": "00a85bc7e8f0a91d2ecbaa83b66f62a7bb6e1eeae054f229e8b145779e10ed85",
    "step-ideal-shared-adc-lognormal-exact-P2": "c6d352409d38d251ff69f1bd2758bb5ea03cf33ee26795327671f3cad444f6af",
    "step-ideal-shared-adc-lognormal-settle-P1": "19c70d6984b228bb74cbc87105aa15e4d2cc36ac9a3b3ac1553217d695c447d3",
    "step-ideal-shared-adc-lognormal-settle-P2": "45557c53469bf059a3a901f2fcda0cd382e846aa7e2dd8f29c3e6efd001743fd",
    "step-ideal-shared-adc-truncnorm-exact-P1": "c750ac24cb5592cd7ec48cd8ff275ae4648eade7d4ff9983a7f14cfd84549858",
    "step-ideal-shared-adc-truncnorm-exact-P2": "1c78c246096d241d9bf8a733dc0dc16210ff626377bbcc4b883ad9089117665a",
    "step-ideal-shared-adc-truncnorm-settle-P1": "bf8da7cb9d7334c328c66a1b2187b76dbcd3b20fa7d236e83b198aec2cf06930",
    "step-ideal-shared-adc-truncnorm-settle-P2": "b664873e911de588c8335a563c18ef502b601f1b0fe2162bedacc2bf357e60e5",
    "step-ideal-shared-bypass-lognormal-exact-P1": "59c70b3e8141f9288f4a39b00f1ea910aa4d64e83e55504ca94b9cad9c3a8f8e",
    "step-ideal-shared-bypass-lognormal-exact-P2": "719ba809d6d706681e9f6e1c778f3d7405e77f3a735c43292047522815593578",
    "step-ideal-shared-bypass-lognormal-settle-P1": "3f21c5758671e41ae221ff4d9e908e988df03f1977aca042a48b93c556a1df57",
    "step-ideal-shared-bypass-lognormal-settle-P2": "1afe19eaaf8e7752b33076c17ec0643efda9e0d8c5ead84b15d8d2d167f93cae",
    "step-ideal-shared-bypass-truncnorm-exact-P1": "493b459a46641c4e89e82870095e202e9cf44042ed6506a5571cd6abaf9994df",
    "step-ideal-shared-bypass-truncnorm-exact-P2": "671efb0e28e6a4f29161dc22ba4152e7539857ee8fc5ccc83304b9b2a6d5491f",
    "step-ideal-shared-bypass-truncnorm-settle-P1": "c9c5196d4dfc8388a22d3d4545c3e1a8f1afeb734a4abbb851310cd5ae0eec78",
    "step-ideal-shared-bypass-truncnorm-settle-P2": "31d3e2d62e8252c75936ed6721fcb78eb664a8503297e6d4dd66417dcc226aa4",
    "step-ideal-split-adc-lognormal-exact-P1": "bf05c63651ac41b7e73352b2c9348993d3ff8e6dc2321843991c09e91819ab7c",
    "step-ideal-split-adc-lognormal-exact-P2": "818544619c5c9e0a789cddd022eb73c1ed3fa8ddedadfe97fbe3114364cb88d1",
    "step-ideal-split-adc-lognormal-settle-P1": "bc189db051b38c07f21e026c945162fefc9641ec76e1c1be9e61ce30ef64a84b",
    "step-ideal-split-adc-lognormal-settle-P2": "1e5291c2b5e7445013351e7d94fec9c56fa8b2ae0329fa9a2b436195890b4cce",
    "step-ideal-split-adc-truncnorm-exact-P1": "9f46e5c755df387f469ced591946ca25fcb759695118e323e823b1f63c93d825",
    "step-ideal-split-adc-truncnorm-exact-P2": "4b7af73c4490aded3327c0b0916c810a7d0fcf04865c1f2e39603bb21a6cdb4d",
    "step-ideal-split-adc-truncnorm-settle-P1": "08501295b9b0a23619f1ea759ba407e64561495d67528bec7a41d66a9b55b567",
    "step-ideal-split-adc-truncnorm-settle-P2": "b21e123c8b02c67d38c3399925afbd0c9c4d602b9c877d3883e5d51343a00ce2",
    "step-ideal-split-bypass-lognormal-exact-P1": "b474514d475fc8a53e0a07ab00e6cb38ee179cdfa77126e18b9d277a6191055c",
    "step-ideal-split-bypass-lognormal-exact-P2": "6882fc016c6159c0e9b3e0a8913e34e1303a792f2dcc9acbcc55def1d5a34ff1",
    "step-ideal-split-bypass-lognormal-settle-P1": "e73dacaca62397e96ffabb10c1621a25d59884d1e9fb2cc8cb70e125dfcb3ba5",
    "step-ideal-split-bypass-lognormal-settle-P2": "2ada94d254adc4d0ca32b213abd45a317c95d924af7a5c98dc8049a52b72f3a8",
    "step-ideal-split-bypass-truncnorm-exact-P1": "55af4a02409699e1aa6e8aca89b2e030bbae09088a418cb5b80274d8da9ef446",
    "step-ideal-split-bypass-truncnorm-exact-P2": "9379a7ebf1dc5559d040da26c5176ed98f5804a08c4e22f801345de974db8c7e",
    "step-ideal-split-bypass-truncnorm-settle-P1": "05e463c0a7b47d00501060cbd407f524ef6c0bd544482e2676c9aafeece4b99c",
    "step-ideal-split-bypass-truncnorm-settle-P2": "8832b290f4e520b006c5a8063116ccff8b9ca20028550b08c1392571dac6ec82",
    "step-sigmoid-shared-adc-lognormal-exact-P1": "8d801dc042469f605304f73e2719b92a1267fb9e4adb935e2c6f7a05e3b6084c",
    "step-sigmoid-shared-adc-lognormal-exact-P2": "dea3592fb3bff5111fc8489bbd5b0e7045535553e3ee1863eb94ec220ddebdc2",
    "step-sigmoid-shared-adc-lognormal-settle-P1": "73fc01274aa8809711afe46e0d1343fbd70a8a23c5fcc1a5ce62c790353e1e12",
    "step-sigmoid-shared-adc-lognormal-settle-P2": "bbd5749677c16d732815702981e9278b6131407c8cc78fdca0717328ce22632a",
    "step-sigmoid-shared-adc-truncnorm-exact-P1": "a35824b9e1a84af33bfdaae56f94173be7311cbf36686c62e56ba2b522a8aac7",
    "step-sigmoid-shared-adc-truncnorm-exact-P2": "c3777a1f1f78cb3fa35d62cf4d4766a28bd93ae378af8b30173c5b73702ad19c",
    "step-sigmoid-shared-adc-truncnorm-settle-P1": "f2dfa3672aa632f77d723d9142feb012111a8cf9e8a3021a30bb770859844324",
    "step-sigmoid-shared-adc-truncnorm-settle-P2": "6aa259f9ec73380ab7f07db7e2637fa51fa89d2a94bea33c28f6eab0c76c8c9e",
    "step-sigmoid-shared-bypass-lognormal-exact-P1": "b3db63a872c3676d56ea9a67d3b74947945e043b4e5572d29d29346ebd82e3e5",
    "step-sigmoid-shared-bypass-lognormal-exact-P2": "3dc6a9227a061f2e7cec395c449bb7d7833080f8cedabd901152d6c0ae304525",
    "step-sigmoid-shared-bypass-lognormal-settle-P1": "39912123858209d371b591027f5a96ed00cc59a02ec7d70d5fd33206511bad0a",
    "step-sigmoid-shared-bypass-lognormal-settle-P2": "b9c76d8c51a45f35e3c854a1afb3113f7765d7e977efd303c4c9060dbf833424",
    "step-sigmoid-shared-bypass-truncnorm-exact-P1": "c8090368cb63c8414b412b50eb5aec5f8e0b484d0c117ba28b68b064e617fd79",
    "step-sigmoid-shared-bypass-truncnorm-exact-P2": "a9c5bc78c1a1ae5710a345e49a81c9ace5d74138a186ccac8e2cc92cdac0a795",
    "step-sigmoid-shared-bypass-truncnorm-settle-P1": "217b8a9f373bc60ec1efe2153081a5555aa35506f94d280964a013f0cf4ed616",
    "step-sigmoid-shared-bypass-truncnorm-settle-P2": "328b8805400028b42d7c8fe8cf2631bd1cba5567aeafd3079bc961dd0e697f5b",
    "step-sigmoid-split-adc-lognormal-exact-P1": "08557111f5290d91cf743fb5fb0a84c632895647502005cd610132c10d31c4d8",
    "step-sigmoid-split-adc-lognormal-exact-P2": "8dc3e3cab0315071870d2f81cdd5174384a70837c964da0ee25c9bd0bb7ec3c3",
    "step-sigmoid-split-adc-lognormal-settle-P1": "b5c454380822afc65db638cebfaf43f9d086adcd070b90697d647cb466f3f4ff",
    "step-sigmoid-split-adc-lognormal-settle-P2": "a9d29d0f856584098d3725e563ca8ec6634cc3024cc27974ddd15cbcdc3d428a",
    "step-sigmoid-split-adc-truncnorm-exact-P1": "ad7c395f339d91f7bf601737e1428d3a470025476eb3800c93c352288bcb481f",
    "step-sigmoid-split-adc-truncnorm-exact-P2": "2c8d728a24a1d968bb798226778b02dd320a4d35130182478555bd197dfe4e0c",
    "step-sigmoid-split-adc-truncnorm-settle-P1": "943bdb7e53254f667a6671a1b6d1ed1d1323e8f826659b56b79ac2258e1bd7d9",
    "step-sigmoid-split-adc-truncnorm-settle-P2": "1cd643e924f89c5805dd119cbc323e803335541150545d8e67dcc171efc51225",
    "step-sigmoid-split-bypass-lognormal-exact-P1": "eb72027f032597761198a32984224eae967bbb40ed7965f20bc8bedc0b042d3e",
    "step-sigmoid-split-bypass-lognormal-exact-P2": "23b307256b70a4637ef7b4135899bcd752c2a57a31348228df7c0fa0dbbc627c",
    "step-sigmoid-split-bypass-lognormal-settle-P1": "57e2fb28c6c5ac71751b9546e03e14a983697772a8ec25ce9964aa503a4b9a59",
    "step-sigmoid-split-bypass-lognormal-settle-P2": "62dc9877bc172ac17d0d037925633e01c41d63bf7ec14d835586434a2fd7c1fc",
    "step-sigmoid-split-bypass-truncnorm-exact-P1": "3ba0bfed450758c9cfebe5b2812c4edb7c14b68f3bc8d6ae71555a775b44089d",
    "step-sigmoid-split-bypass-truncnorm-exact-P2": "2e2ad6b559928d612039f50a624add169913432118988afe8268e4ec5acfb49a",
    "step-sigmoid-split-bypass-truncnorm-settle-P1": "80b31a49fbc45e458d762f5f94afbe62d06fb98fa2812f81b9b488cf9076144c",
    "step-sigmoid-split-bypass-truncnorm-settle-P2": "f7d1b0c708504a8dbdeaa0c92801f5e69dbbb554b84f4a01bdac2c213c534adc",
}
