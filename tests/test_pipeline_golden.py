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
    "checkerboard-ideal-shared-adc-lognormal-exact-P1": "d368415536618b246ef55733b6d99d4bfb538c37066a0eb796bfab411788305e",
    "checkerboard-ideal-shared-adc-lognormal-exact-P2": "7ec8e4552eee62b025184b5f8169b423ad41f376e3fd914ac9f48413547d2bd7",
    "checkerboard-ideal-shared-adc-lognormal-settle-P1": "05fe250198615911aa5d3446ebde798677efdd8a32b80019d32bbe678cd9f323",
    "checkerboard-ideal-shared-adc-lognormal-settle-P2": "003868a7e6fd5028e3456ec81f80c5c6f7d1efdebec0fef92a20038e2a42a80a",
    "checkerboard-ideal-shared-adc-truncnorm-exact-P1": "63a20629e5070e2c1c4202dbb9f0f725b30846075df54db65052d058428a62c0",
    "checkerboard-ideal-shared-adc-truncnorm-exact-P2": "53c9495c56914093909671b8b0441074e2f0d53e718a2978daff6b64aaf800b2",
    "checkerboard-ideal-shared-adc-truncnorm-settle-P1": "cce0e612efafe2cac04598ab400041a192d9becdd37c3e7c1fb4f427f0bad296",
    "checkerboard-ideal-shared-adc-truncnorm-settle-P2": "c887c75be254aa9abc25c7ea569d84920d4568a19f2cb798c6701405fb88c826",
    "checkerboard-ideal-shared-bypass-lognormal-exact-P1": "eeea34fd48a4f6431552288e206ec664ec14260d136e371f6a9a12a82741dcb7",
    "checkerboard-ideal-shared-bypass-lognormal-exact-P2": "e1a8e5d3bc5b9ea26d81a17f86a3ff4e9f5daa738d62c61809f307f1c66013ab",
    "checkerboard-ideal-shared-bypass-lognormal-settle-P1": "2e66fcd26e832e7edc6ace645de5f7bddb10e6c1aa82c5ed95ccb04dc8277562",
    "checkerboard-ideal-shared-bypass-lognormal-settle-P2": "46fac4b38e4eaf3f755b585c3f5529a416e8f935f060ef51f72671d055cbb255",
    "checkerboard-ideal-shared-bypass-truncnorm-exact-P1": "78b100254466f60253520602fe7621aa0fbbd925290e0838e3ab7e3c253c49d0",
    "checkerboard-ideal-shared-bypass-truncnorm-exact-P2": "cc7fe0b86b1785eb75c9c82d8700f28ffb951ec9c46459d84b3e1fa1dc36cf80",
    "checkerboard-ideal-shared-bypass-truncnorm-settle-P1": "463a747f43c530ad7c6918168b6c26cd817aad086ae4d19d168b478aa361046c",
    "checkerboard-ideal-shared-bypass-truncnorm-settle-P2": "d98e70a2265cec9b9da8d90fc6e6cfe9ca177c3504f1e4069e5a8319fc819aab",
    "checkerboard-ideal-split-adc-lognormal-exact-P1": "c747fef4e7f74d75c17c0c1c4d744c432b932847cac701e77c4b5def4a17963e",
    "checkerboard-ideal-split-adc-lognormal-exact-P2": "fea30d3785c8b53ca2cb2983fb9a6f40bbff5a53db1a772159b4d32038edbd5a",
    "checkerboard-ideal-split-adc-lognormal-settle-P1": "642fa6b2fc93156e3ad81269c1a52ae8b9aa3f9619e056082c5d49ae87d39690",
    "checkerboard-ideal-split-adc-lognormal-settle-P2": "7242ee7a8467e1112a315e126e480cbe0c35dbd40202958bb205e3ca832783ec",
    "checkerboard-ideal-split-adc-truncnorm-exact-P1": "bf9416c1eb99bb15e71be452c09c855e911ee9478c541c00f28185c884bd3462",
    "checkerboard-ideal-split-adc-truncnorm-exact-P2": "64e9c0ceb982c7966b573033a8b109c05da057a5d5ee5e4841d82fc97f65d857",
    "checkerboard-ideal-split-adc-truncnorm-settle-P1": "8fa00e62cb1f6366f0adfe87ebd837f17d00b5eae828fe05166c1c82992afe77",
    "checkerboard-ideal-split-adc-truncnorm-settle-P2": "e2e5b55b330eec8cb6bf3be0f3079dc770d8b42f21d9c70b66c67c2815f22c47",
    "checkerboard-ideal-split-bypass-lognormal-exact-P1": "210d7845a95cf5936cdf9177c38613128e55c6db0a6f381f47cde30d2fe530bc",
    "checkerboard-ideal-split-bypass-lognormal-exact-P2": "08bd5419ea856d8574b918408e8917de23fbd10b5f35d910f1abf4e3211fd20d",
    "checkerboard-ideal-split-bypass-lognormal-settle-P1": "4bf037a1ba1f02bf0aba936b5ef9233c538bc6f12bc6a7b8356029cfc89462af",
    "checkerboard-ideal-split-bypass-lognormal-settle-P2": "0c5be407f0fc4a8db28d3cdc695cce8606a92329cac039b366bc512bb4089468",
    "checkerboard-ideal-split-bypass-truncnorm-exact-P1": "bf4142abb986bd1b65ffdb6225ad1d6f412a0dbc430d207469ece551e63371b3",
    "checkerboard-ideal-split-bypass-truncnorm-exact-P2": "f389e56b4b6dd5b390c2aa67ea6980d109f86f2ee6b7ff7170a3e1124aac1287",
    "checkerboard-ideal-split-bypass-truncnorm-settle-P1": "80e9c5c34477209d748478000fddebada9152b6d152b231749d7b42bba6820f8",
    "checkerboard-ideal-split-bypass-truncnorm-settle-P2": "b88f652318957462d551f55a0e64ddd336c7e954eb9a2dcbedf34cb89fea8369",
    "checkerboard-sigmoid-shared-adc-lognormal-exact-P1": "47bbc5177d8e1d13b78631ff4aa669ae493ea911754a25dec619e8f262004d6e",
    "checkerboard-sigmoid-shared-adc-lognormal-exact-P2": "03f6d4f17fd1ff51affd8a449f0aa6bb387c8eea1306ebfd0cd9c6c111928bf4",
    "checkerboard-sigmoid-shared-adc-lognormal-settle-P1": "67191f1feb6b03935e47b973887fcd2d258fb428d33b87c09652227a633af922",
    "checkerboard-sigmoid-shared-adc-lognormal-settle-P2": "9a8568500c7787cb753b0a7eea25dbba24ee56668ef52d5c507960024ccf2470",
    "checkerboard-sigmoid-shared-adc-truncnorm-exact-P1": "389e64feb9a83ecb8eed1ef9731755a1c2595acc77ba4323c76e1b78aead5664",
    "checkerboard-sigmoid-shared-adc-truncnorm-exact-P2": "6648a2e5ed93be7ddb8627aa36dadf716174dcae0df2a3df2132997a2dd718d9",
    "checkerboard-sigmoid-shared-adc-truncnorm-settle-P1": "fa513b35bbee196675ce8f8930309dea439129356f3cb9f7d21830e0e0221f07",
    "checkerboard-sigmoid-shared-adc-truncnorm-settle-P2": "7bb2119c5c4aab6ee20b9f5e22a7618b3bff5d5d5efc89d4211ee03f17d6ad4a",
    "checkerboard-sigmoid-shared-bypass-lognormal-exact-P1": "a1b2e3bdd7e7dde7bd32f0098d88d4a885e2fa95632a09a5c2f5bd8a76538394",
    "checkerboard-sigmoid-shared-bypass-lognormal-exact-P2": "99edb12dc77452fa0c41df2510d8c5413ce1ee9ba88e3577f80913812433b3a4",
    "checkerboard-sigmoid-shared-bypass-lognormal-settle-P1": "e0022d91783d2bc06fac1ac2237e5678c401a31b68127189fe136211e85f3220",
    "checkerboard-sigmoid-shared-bypass-lognormal-settle-P2": "0c1f281731c39bdf446007a2a1d4252cd28c360102bb9ddbc020a31c0e354226",
    "checkerboard-sigmoid-shared-bypass-truncnorm-exact-P1": "934ae18697f62789c1396dcab512595ae5465c765f66a424d003c186cb90eeb0",
    "checkerboard-sigmoid-shared-bypass-truncnorm-exact-P2": "9f355070fa051dfbc044ba0263cf34adcb48706bcfe954f32a2d341fa9e73077",
    "checkerboard-sigmoid-shared-bypass-truncnorm-settle-P1": "7a847410dca4d04b19699380fe99fbad8218cec406203a5ba709bbc2610a45b0",
    "checkerboard-sigmoid-shared-bypass-truncnorm-settle-P2": "3eb9cd3d12cd1098c3202d43f0a17621b5bcf8d3f6f56b9a0d498f9489239442",
    "checkerboard-sigmoid-split-adc-lognormal-exact-P1": "4d25016d67ca2023fe2cf38cc2a17dc49ab29db86a3fa99433f1500fc1c7ab23",
    "checkerboard-sigmoid-split-adc-lognormal-exact-P2": "909a43e6823cab7e42048df3fb39e655d779943ae899cbb93914d8bfc403d44c",
    "checkerboard-sigmoid-split-adc-lognormal-settle-P1": "c79d37442fc2b1019e3a5a3fea7c249b7ef2336d572a901ae65e1c5027fc1faf",
    "checkerboard-sigmoid-split-adc-lognormal-settle-P2": "66c8e4d721aacb640b546ebfbc043f42dbba2f1bbe62a4510c610ec8e237caeb",
    "checkerboard-sigmoid-split-adc-truncnorm-exact-P1": "9f4f0609de3fb7a5ff37068c11d21373b208637923d5f63bf776ff6472225410",
    "checkerboard-sigmoid-split-adc-truncnorm-exact-P2": "5f82cc7a964fe847d31abda63bf2f462114ae13be1c9a6bfd00642a683cbbe0c",
    "checkerboard-sigmoid-split-adc-truncnorm-settle-P1": "d2cc0c85a4a380736db16c9bb80c1e13a9c865139af6fa9adf4a463a6d50c48e",
    "checkerboard-sigmoid-split-adc-truncnorm-settle-P2": "3c0d09704f1cb088e6126d4a32a58ede62321d529481f3e03173ee65412badd8",
    "checkerboard-sigmoid-split-bypass-lognormal-exact-P1": "3b062339a432208512e3ac033fc24a937b55a5eefccedf19f4c24421ce29ac32",
    "checkerboard-sigmoid-split-bypass-lognormal-exact-P2": "005767c03070888ea8a5e4ba6779a92a856769158cadae9b334601e3a42446c6",
    "checkerboard-sigmoid-split-bypass-lognormal-settle-P1": "c51cfd4a10c96cb87f5c10827e4f4ef2ce718f71fed50662e31e28e59cbb350c",
    "checkerboard-sigmoid-split-bypass-lognormal-settle-P2": "f0e8236caabd7604a5e500818e34b4b3da27315b76906f28b5403f8d4bf49e16",
    "checkerboard-sigmoid-split-bypass-truncnorm-exact-P1": "f0e10ce3a8a2cb123bb5766f21eb69b4239e45150ce4c24100bbbd4e824ddd09",
    "checkerboard-sigmoid-split-bypass-truncnorm-exact-P2": "e1c3244f244eeed1af4b50f637aa2ed9a03ab593352953f760479039d64b73e2",
    "checkerboard-sigmoid-split-bypass-truncnorm-settle-P1": "8751f7ea5e51b24a18034c35056c9aab65982343f0671ee76c3763e6080a5600",
    "checkerboard-sigmoid-split-bypass-truncnorm-settle-P2": "06211cf314a48ca17f2749a2034a4fe0224720df04d44086576f05aa251c3a71",
    "constant-ideal-shared-adc-lognormal-exact-P1": "c7151dd16364ea6b2877baafb9041e946e64a91e833c1e87f8a88e95a592e277",
    "constant-ideal-shared-adc-lognormal-exact-P2": "27f35b005e6096a974f3f1faac6be992cb0b8fb869a3be98fd8d3d8679ed61e4",
    "constant-ideal-shared-adc-lognormal-settle-P1": "c592d92c948549ca996bc1c4a0f8f2ab971545afcf1f97ee440db5d105c80479",
    "constant-ideal-shared-adc-lognormal-settle-P2": "77d332d6ea547cd6cae8784d3cc971722c5bae111bb7fd06ffdc6855ee32568a",
    "constant-ideal-shared-adc-truncnorm-exact-P1": "221a3e0911c45e22b4a88f28280a98898049de1a706b6ddbf2b5a1d9ffcd16ed",
    "constant-ideal-shared-adc-truncnorm-exact-P2": "e32bbf074b99290622ac82393daf38c705c9e655e32e754bae82a5431db1e387",
    "constant-ideal-shared-adc-truncnorm-settle-P1": "1e027b0eda35ceff60a60ec72b445858fffcfd53b616f6326dd00ae24d8f90cd",
    "constant-ideal-shared-adc-truncnorm-settle-P2": "01c156ceaa9e1400a8d989d495b7cad9d24f1efee9580a847869e0b22ad7f6f1",
    "constant-ideal-shared-bypass-lognormal-exact-P1": "fe8e16cfeef88a624a921b56fdf429344529dcddca7f569d59d7563f4685b2fe",
    "constant-ideal-shared-bypass-lognormal-exact-P2": "0defd501bb661a2a3b2ac218105f0a64e6e3e2f157f5a881ff3d53b898622fa0",
    "constant-ideal-shared-bypass-lognormal-settle-P1": "26bcef5160d2df596da37b04397b8654a9b73af41ab4c9c10a30092ff12aa797",
    "constant-ideal-shared-bypass-lognormal-settle-P2": "900729e8c1c2e9a7433de99f67ddebcbc8fecda0d44b32b4be5cb9cf1ef9b433",
    "constant-ideal-shared-bypass-truncnorm-exact-P1": "a0fe08a23b54c7f9472b81291cfa8fa954ea185d1f0d764e4f5337999eb32cc4",
    "constant-ideal-shared-bypass-truncnorm-exact-P2": "5397ea8001de5dfc74a5698c4e02296519a8da6ebe94bc1e94b9573d7b97a032",
    "constant-ideal-shared-bypass-truncnorm-settle-P1": "6e7b18b6172a71a2909917785e5b85bc94028cba474187b466e2afa57cc8fa5e",
    "constant-ideal-shared-bypass-truncnorm-settle-P2": "9c9ce24aa2539ea8c8d0b20a9ab7d93bac5ac609c8eb3f65d3e43dbf57be9056",
    "constant-ideal-split-adc-lognormal-exact-P1": "f7faa608e53f2ba2e54af9322967351b4b3c13ffd6d36f180c246a40df2d9a50",
    "constant-ideal-split-adc-lognormal-exact-P2": "c2263cdcca83cc0ce2b2c7b025315e1fb1d7907f0c88aa5ccfb16f1c918284c6",
    "constant-ideal-split-adc-lognormal-settle-P1": "68d06f702fe62aec523386a92b54989b7d0cd75416b43120d842a9a96d84920d",
    "constant-ideal-split-adc-lognormal-settle-P2": "6792404e5eca0089dc6153afdab3fac96a81e91ff825195d83115e7332d0d014",
    "constant-ideal-split-adc-truncnorm-exact-P1": "b7ef6fc0ed2323ab72b9cc79dd70e99cb2488328e15ec54eb57df1b313a93252",
    "constant-ideal-split-adc-truncnorm-exact-P2": "61e0f88c9e7e66f4cd2f88eae4c69d3c3035cfdcad36316998a127a5f8fdb2e6",
    "constant-ideal-split-adc-truncnorm-settle-P1": "eb23b0ae04468c84f933121cf2c8ab7462a6165ba622703ba35deb12d1d6b1bb",
    "constant-ideal-split-adc-truncnorm-settle-P2": "338cbe3c9328c11500d2f87a750ac80f91d27487d8c93f371e315f4d8171b183",
    "constant-ideal-split-bypass-lognormal-exact-P1": "18f254f360cb354915d3d8778580fac1dc34400993cf7022d53acc5b988aa07d",
    "constant-ideal-split-bypass-lognormal-exact-P2": "4602926d9378bfdba3f7828d0a795d308694810d5c43533f7c0b6e5af455bf4e",
    "constant-ideal-split-bypass-lognormal-settle-P1": "5638968c090a91e62176b7c4f6cd9fc1dd871952a90c6ebf19bc6cb7bcc3d727",
    "constant-ideal-split-bypass-lognormal-settle-P2": "8f071bd5e34c98fa46bd388866f2890d9f9b6d1b85afb1d85656293b884a3d14",
    "constant-ideal-split-bypass-truncnorm-exact-P1": "724af2370ff329606d01f6609691aaf72f3d957efa38a09c2cfc9670b3b9ce72",
    "constant-ideal-split-bypass-truncnorm-exact-P2": "1ead1b10ab83e0866f953cbdd569575f6176a5422e3b96b73b95ef76c3070b5f",
    "constant-ideal-split-bypass-truncnorm-settle-P1": "b2894f87fd6b53d850c31e99d02385a12c546082093d7867b712ba45f6631aed",
    "constant-ideal-split-bypass-truncnorm-settle-P2": "08da65d629fa69aa4300a42be618f54d32c3ddb2ce8636dfbbc84aedba7823a6",
    "constant-sigmoid-shared-adc-lognormal-exact-P1": "b3acb11972ea2d8a9ffa465a6f0a38aa17853b4791fa3fe078e8a2d299c5b9a8",
    "constant-sigmoid-shared-adc-lognormal-exact-P2": "5aa85a91cf1c760c3a3c675f713058f89be16d751d9480a1ceecba3cbe08f510",
    "constant-sigmoid-shared-adc-lognormal-settle-P1": "07739996602c30e56c4d96bc1859ceedd9dfc8495a92d47333f7178e50cb5b80",
    "constant-sigmoid-shared-adc-lognormal-settle-P2": "ae8cfaefa71e85b9658c2e4ca11ddc16bb14a17f72417094535b71eac9a35173",
    "constant-sigmoid-shared-adc-truncnorm-exact-P1": "9ada9eefb563ed73c19a066eca2b116ba1a97906a5f1d592569d0f2c63a75c90",
    "constant-sigmoid-shared-adc-truncnorm-exact-P2": "7b32f2723a833fcc9309f6ff9ec0fd8785d50dcd90fbeee1b641074d3fd849f6",
    "constant-sigmoid-shared-adc-truncnorm-settle-P1": "90d85938560348a0d3a8eab3a31ed87bce84f6d4d94166911878f5ba75947a5f",
    "constant-sigmoid-shared-adc-truncnorm-settle-P2": "84c2a201bdf8482a1621b0a06a3240fea29db4ae28ada74beaf4918bbda769f5",
    "constant-sigmoid-shared-bypass-lognormal-exact-P1": "dc11c89322e0688cef1572659c9e18b6c22c355c579044d3355947252505404e",
    "constant-sigmoid-shared-bypass-lognormal-exact-P2": "267b2c69defcef46249085f9c1d700ae8665a4bfe21c1255d907774d94e5dd5c",
    "constant-sigmoid-shared-bypass-lognormal-settle-P1": "66662789a9867efac480c3f196de0b815f5b645b66a2d2cda266db8358041d9f",
    "constant-sigmoid-shared-bypass-lognormal-settle-P2": "f44fcfea71c7b2d46687635b0ec88ebfdcf7131fe3ba2f5ba9c43eb32549fbd8",
    "constant-sigmoid-shared-bypass-truncnorm-exact-P1": "6443d4ff0a8b03cc8a9e8b529180509bce5175c674d65843269b1f5fa45837b9",
    "constant-sigmoid-shared-bypass-truncnorm-exact-P2": "1748d0486362dff2c40640df5ae721e5622fd1aa33c65b340a24bf2023b261eb",
    "constant-sigmoid-shared-bypass-truncnorm-settle-P1": "5bb8108acadf7b8284965772987662a3736b65ef6d3055fb330f59cc379de092",
    "constant-sigmoid-shared-bypass-truncnorm-settle-P2": "a1377599e2838c1e07653216575ee482f8d72a6a5ec3f400252ccdaad636f299",
    "constant-sigmoid-split-adc-lognormal-exact-P1": "126cece6fcb5298d45a5a6ab21495e903cf409284ae473ddd91a13bc8585c9f2",
    "constant-sigmoid-split-adc-lognormal-exact-P2": "355b5e889531b99e221a145d3e7fbe248536bf5a7ce92c6b82cc0a18e9b4f1cf",
    "constant-sigmoid-split-adc-lognormal-settle-P1": "3a61e0e93eceb45be59fece4ca3b73b3f355bcd7f76a5b5dca6a8e321d3749e0",
    "constant-sigmoid-split-adc-lognormal-settle-P2": "e72a8716e2590cba84e5ba7be74dd7df18f9bfec31abba50da1e5e0be252a754",
    "constant-sigmoid-split-adc-truncnorm-exact-P1": "7aa8aeed8ce27cfc9ae93120a14ba0068d392c41f1e6bd2596dec5c47a0c4d33",
    "constant-sigmoid-split-adc-truncnorm-exact-P2": "714eeb5247619b63cc62a307e151f90f9a9cc58244c926a8dd8c1fa262bc2994",
    "constant-sigmoid-split-adc-truncnorm-settle-P1": "d29ac8c8650224262dfce7626d5226e3298558fd25cf3d9b66cc90960d143612",
    "constant-sigmoid-split-adc-truncnorm-settle-P2": "294c01dc87b0b1b86ef3e4a32c3ef323eb2c177ffa3b91eddad223a2a5b46d8e",
    "constant-sigmoid-split-bypass-lognormal-exact-P1": "ea9b8c2ae06efc238d19ace1793787e4d4fc0046ea9439515fe819f9f513383f",
    "constant-sigmoid-split-bypass-lognormal-exact-P2": "60be2c85fd42dd917c53898fc4452d3dd85fa38857004f0c6863743e64ad214b",
    "constant-sigmoid-split-bypass-lognormal-settle-P1": "55f1321e86cd606290be376b83aec8c893ceccc9e0881a2e602a98d7257c328c",
    "constant-sigmoid-split-bypass-lognormal-settle-P2": "849ce91d3ad2a58970c76bab60fdf4d9df771236b1b1e84106d8b1ff17f28bb9",
    "constant-sigmoid-split-bypass-truncnorm-exact-P1": "0dff448fc1538c235445edd698764971d88f4d149aaa59586db573679ef62e0e",
    "constant-sigmoid-split-bypass-truncnorm-exact-P2": "a47778b9e0f8d172b99154a41d657ec62715fd9bdaa218fb52785871e1b9e837",
    "constant-sigmoid-split-bypass-truncnorm-settle-P1": "a05dcca15cf40c7bc42d21c169176ee9000f88a5c5aed52cc9958a9cf5bc7b40",
    "constant-sigmoid-split-bypass-truncnorm-settle-P2": "2d01142fa697d0cca893b9b1ccb01e1398816d3608cbd329f2ddb6aada8f9019",
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
    "step-ideal-shared-adc-lognormal-exact-P1": "0f49b2cd3372b6854961b7fbe0307adfdb7a2965a1a7305dfc16c65fb4fb4c0f",
    "step-ideal-shared-adc-lognormal-exact-P2": "c48e107effdf953857871d9c8f22201289a904ea1f880b550cd8045b011c1659",
    "step-ideal-shared-adc-lognormal-settle-P1": "7b96b2ae138e54808652d5d408b23cefe649a0de5c6783ed09e8f27e23cf8a19",
    "step-ideal-shared-adc-lognormal-settle-P2": "82604f1774392f324114f1ccbe40ed44867313d6fe03ada925730e6d220e8757",
    "step-ideal-shared-adc-truncnorm-exact-P1": "612bee0f2024b835692919f204f4cf37c2a96c0ff79c0492850daa790c83abda",
    "step-ideal-shared-adc-truncnorm-exact-P2": "543ce1d7f7b8edb96e3fcab44213c69663201c31e6e26416c0b63a9460096aff",
    "step-ideal-shared-adc-truncnorm-settle-P1": "c19f50e2c31684b52d369dd24a5cd823fbc627718f6be0930311b5a918265455",
    "step-ideal-shared-adc-truncnorm-settle-P2": "66e838a233c8bf2de087811757d5a0f83d14755f4bdc2929e1b7a8ae64742240",
    "step-ideal-shared-bypass-lognormal-exact-P1": "4416b69a9ec362b4213f25a0dc1debe94976a8fe5909d0fe6043c92e674d628e",
    "step-ideal-shared-bypass-lognormal-exact-P2": "855f604d544511a6b2ff67bd1d4e95154132a05b2bb792474cb51f0b24f53b4e",
    "step-ideal-shared-bypass-lognormal-settle-P1": "09d056c9a3138090e581c36817d0170b57acb7e072d765262b687cb400d73e3a",
    "step-ideal-shared-bypass-lognormal-settle-P2": "fb4a7f8777d95552b1c2cc266b66ba5915efeeac0ae4bc93b964e79c8fe5a67f",
    "step-ideal-shared-bypass-truncnorm-exact-P1": "0baa2d45f113de0a52b8283b82eebc4c3d6bf0fb53b6420ed32057c3bf0d12e6",
    "step-ideal-shared-bypass-truncnorm-exact-P2": "a2fd633b8923bb64a59e02ce0463d7ac181eb316bab9f56377b9e4afbd26affc",
    "step-ideal-shared-bypass-truncnorm-settle-P1": "f5ee556350e3330cf6f8a974db1cec4048bd70ffbcd673b212f99f522e99729f",
    "step-ideal-shared-bypass-truncnorm-settle-P2": "3bd6f8b489373e23ae3d4b04a5501aee7bc9aca5c328cca7b33499642867b456",
    "step-ideal-split-adc-lognormal-exact-P1": "13c629523f055cd2b950b1897bd69e02897e1e99cd099f7958c3ea1c8c3b6cc1",
    "step-ideal-split-adc-lognormal-exact-P2": "6a539aa4d7dbbbb4705ac9823e084e4c5ec29936423fae9ff72114ab449a0664",
    "step-ideal-split-adc-lognormal-settle-P1": "1673789eda9ac6dd183dd588660bfadd68505bed0d3d60a36a7e82a040ca7fc5",
    "step-ideal-split-adc-lognormal-settle-P2": "d7315e2a40f3d3064f00b741ea8dba8550bcc38823072ffadd306542f39fb14b",
    "step-ideal-split-adc-truncnorm-exact-P1": "f4c22794e657ce24fe9664c2a921ad9812bb8ae8ff2f55d7825d694ea0623688",
    "step-ideal-split-adc-truncnorm-exact-P2": "40c9cc12aba668c5fc6353a96e085f6486da8932f768bec7e6567e151d635a9e",
    "step-ideal-split-adc-truncnorm-settle-P1": "e3ad3d76550c87400c33d3aff9fbd964babc68d6c4e3adb4c174ae64dac36662",
    "step-ideal-split-adc-truncnorm-settle-P2": "cb088e8b5384a47266c643dfd70c9f4e53079c53d04189c1a679522ec6a8f761",
    "step-ideal-split-bypass-lognormal-exact-P1": "eb7ddc46395313061b5738d73af829d8988621befe53a8284a84262718d46732",
    "step-ideal-split-bypass-lognormal-exact-P2": "6bfebd030f5be16a2ccd506bde570b3ae63f72fd8355a83e8218187302647e56",
    "step-ideal-split-bypass-lognormal-settle-P1": "08a81ec9c5fec6367fa26a3a95a9cf13412372641581a817493ab5f2865a4f6d",
    "step-ideal-split-bypass-lognormal-settle-P2": "5a0122712c6b6cdc6d5391bf1e6ee0df8b51d18bd631040064f490a637900465",
    "step-ideal-split-bypass-truncnorm-exact-P1": "a2532ee90292e5c6d9ef24d12485ea3cdf82b063f8f590eb4793fa0291145e5f",
    "step-ideal-split-bypass-truncnorm-exact-P2": "42fc2915478d95ccb506a64e7baafb64cbf7a03655d9e63d3af592808e65a95f",
    "step-ideal-split-bypass-truncnorm-settle-P1": "3963cc4d41a40025b6406165660a30456cdaad46d75eb94575899c234c61d90b",
    "step-ideal-split-bypass-truncnorm-settle-P2": "33ff2a1113d085b2c20af274b55326f09625c6f259f206a1a789fe7b0f352852",
    "step-sigmoid-shared-adc-lognormal-exact-P1": "aa6c8fff4450463e634d426276a98bd96b46ae218f23975be865dd4dd11383bf",
    "step-sigmoid-shared-adc-lognormal-exact-P2": "8b4e5280d5a87039baf8e2a7e9043da20af176a52452070c93152cb3d5cbee2d",
    "step-sigmoid-shared-adc-lognormal-settle-P1": "6dd354a045c3526a07721fdb5b9b01cf9beb0502a67bca497702197ee1a38df2",
    "step-sigmoid-shared-adc-lognormal-settle-P2": "80b3151f00ddad4960a82079d562998941fd0f071b907564aefd8b81e67d95cd",
    "step-sigmoid-shared-adc-truncnorm-exact-P1": "72e50ec9b237a7e5ea517002891b426a1c0563121dd3666e0e3e1e5e11120cac",
    "step-sigmoid-shared-adc-truncnorm-exact-P2": "e40fd741156e5fc528b0af512cc5a25f2fe825405724e25da40152c76b698486",
    "step-sigmoid-shared-adc-truncnorm-settle-P1": "5f1dfc897144087df78e349677cb04f2319ab96bfe52f4e35f1d8d6c036c028d",
    "step-sigmoid-shared-adc-truncnorm-settle-P2": "3f711df47f7259214d55a551ca37127ca10c90f684f3cfdc64947751ad108245",
    "step-sigmoid-shared-bypass-lognormal-exact-P1": "f482e593053fab5e43e9f36ae850f84cd363cde95e63b3b4fe098eda5722c8a4",
    "step-sigmoid-shared-bypass-lognormal-exact-P2": "ce1d1f5bc4f6b7747bddffd35c333d2554af077c84ad71e11e1f84a287079346",
    "step-sigmoid-shared-bypass-lognormal-settle-P1": "6f47d5136cc31d1b58f5ba8c9113b5db80562d72a3072deceb67442aa1916b22",
    "step-sigmoid-shared-bypass-lognormal-settle-P2": "708d60afcc4fb0a32eca35667681b0ef56e735f404796aa27e6ac19c7521c90e",
    "step-sigmoid-shared-bypass-truncnorm-exact-P1": "08d71eb7d17e95bb6c91fc4caf96568ff6384d2bdcf89979a40a88334cc144bb",
    "step-sigmoid-shared-bypass-truncnorm-exact-P2": "dbd5a2a961de38a9f2a3692438aa934372e2191f2594109b18d8dbe2a1452cf6",
    "step-sigmoid-shared-bypass-truncnorm-settle-P1": "8848b9698dd408bb0d3474c0db4150ca0ea836e340de9bc2117a9844aa50751e",
    "step-sigmoid-shared-bypass-truncnorm-settle-P2": "6129719defc552737567ea81231e74ff44017773c5e3b549d3ba7e8ab1d86f97",
    "step-sigmoid-split-adc-lognormal-exact-P1": "7e3653356a9e55329f5383c394876cb5415305e29e5d6eb2a5d41eba3a17014e",
    "step-sigmoid-split-adc-lognormal-exact-P2": "0cb0e8d4f534723fd92988e0f82c3e03a677bf3b4697da814f45899797ba5aca",
    "step-sigmoid-split-adc-lognormal-settle-P1": "fcf757e328554abf7e0095631511487b29eb67c5c195710bb1134c775fb98c85",
    "step-sigmoid-split-adc-lognormal-settle-P2": "9ad9f858d7f307fef20be546da0a4da7d2101bbfd6f7dd9dc8ecef17385386f0",
    "step-sigmoid-split-adc-truncnorm-exact-P1": "44751daeaa4226f08f70e317a1784bb01e3f2fc96688bd7b229dca1d8f99be1d",
    "step-sigmoid-split-adc-truncnorm-exact-P2": "495ccfa37444efada7315730ae292222226db4d280206f0e2f91da7639802b13",
    "step-sigmoid-split-adc-truncnorm-settle-P1": "2444d17140f6410a1b9f009f27ca44c6d7ce70562f17e594d27a058252ee1335",
    "step-sigmoid-split-adc-truncnorm-settle-P2": "ff5096b93ed75b8262c656822fb69bcbd953d81ae16b38f39e718d48419d7785",
    "step-sigmoid-split-bypass-lognormal-exact-P1": "f40937aaed2c69ff755e14a08b1afecf06b3bd5ce2b1a45398b9efa2d152cf0e",
    "step-sigmoid-split-bypass-lognormal-exact-P2": "cd2b2ec682c510e0cff7c73a3074c3e5391f6eed428e6f00054a1c01ca8bcdbb",
    "step-sigmoid-split-bypass-lognormal-settle-P1": "54267cd387c4561669073c297dd6593f1204a00237fdc223babb8039bf5f93ed",
    "step-sigmoid-split-bypass-lognormal-settle-P2": "5bfb1c9b8adc9218ffccdec9574935cd4ed107340d4cb4bbb7fed050f27a482b",
    "step-sigmoid-split-bypass-truncnorm-exact-P1": "8e1d2c58fc700c0f0989725b0902f5b51f0b9fd92105801b389f104adebf1282",
    "step-sigmoid-split-bypass-truncnorm-exact-P2": "2c8b287ad135295eb56d7b3c389a448ff6bd5a29fa6f3e7249169e2275ecf816",
    "step-sigmoid-split-bypass-truncnorm-settle-P1": "30b08b74c95bc66a4edff36d76e2b5f3ae31f215e2726b9b73dcb3df04bf7170",
    "step-sigmoid-split-bypass-truncnorm-settle-P2": "cd132c0928e0ff51a69e1b9012e4b8d2be26e8d05c8e9cd7f12a212f12cdc798",
}
