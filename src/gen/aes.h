// AES-128 circuit generators (paper Table 2; they stand in for the MPC
// community's AES circuit, which is not in the repository).
//
// The S-box is built as composite-field GF(((2^2)^2)^2) inversion plus the
// AES affine map: all field towers and the basis-change matrices are
// *derived at generator-construction time* (the isomorphism is found by
// search, not transcribed), so the circuit is correct by construction and
// costs ~36 AND gates per S-box — close to the Boyar-Peralta 32 used by the
// paper's source circuits, i.e. AES starts near-MC-optimal, which is why
// the paper reports 0 % improvement on it.
#pragma once

#include "xag/xag.h"

#include <array>
#include <cstdint>

namespace mcx {

/// Software reference S-box (brute-force GF(2^8) inversion + affine map).
uint8_t aes_sbox_reference(uint8_t x);

/// Append one S-box to `net`; input/output bytes are LSB-first signal
/// arrays.
std::array<signal, 8> aes_sbox_circuit(xag& net,
                                       const std::array<signal, 8>& in);

/// AES-128 encryption, key schedule computed inside the circuit:
/// 256 PIs (128 plaintext + 128 key) -> 128 POs (paper row
/// "AES (No Key Expansion)": 256 inputs).
xag gen_aes128(bool expanded_key = false);

/// AES-128 with pre-expanded round keys as inputs: 128 + 11*128 = 1536 PIs
/// (paper row "AES (Key Expansion)").
inline xag gen_aes128_expanded() { return gen_aes128(true); }

/// Software reference encryption for tests.
std::array<uint8_t, 16> aes128_encrypt_reference(
    const std::array<uint8_t, 16>& plaintext,
    const std::array<uint8_t, 16>& key);

} // namespace mcx
