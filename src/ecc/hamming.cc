#include "ecc/hamming.hh"

#include <bit>

#include "common/contract.hh"
#include "common/log.hh"
#include "common/swar.hh"

namespace desc::ecc {

const char *
eccStatusName(EccStatus status)
{
    switch (status) {
      case EccStatus::Ok:
        return "ok";
      case EccStatus::Corrected:
        return "corrected";
      case EccStatus::DetectedDouble:
        return "double-error";
    }
    DESC_PANIC("bad ecc status");
}

namespace {

bool
isPowerOfTwo(unsigned x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

SecdedCode::SecdedCode(unsigned data_bits)
    : _data_bits(data_bits)
{
    DESC_ASSERT(data_bits >= 1, "empty payload");

    // Smallest p with 2^p >= data + p + 1.
    _parity_bits = 0;
    while ((1u << _parity_bits) < data_bits + _parity_bits + 1)
        _parity_bits++;

    // Hamming positions 1..(data+parity); data bits fill the
    // non-power-of-two slots in order.
    unsigned total = data_bits + _parity_bits;
    _pos_data.assign(total + 1, ~0u);
    _data_pos.reserve(data_bits);
    unsigned di = 0;
    for (unsigned pos = 1; pos <= total; pos++) {
        if (isPowerOfTwo(pos))
            continue;
        _pos_data[pos] = di;
        _data_pos.push_back(pos);
        di++;
    }
    DESC_ASSERT(di == data_bits, "position table construction bug");
}

std::uint64_t
SecdedCode::parityColumn(unsigned i) const
{
    // Bit i feeds the Hamming parity bits named by its position and,
    // through the data bit and those parity bits, the overall parity.
    const unsigned pos = _data_pos[i];
    const std::uint64_t overall = (1u + swar::popcount64(pos)) & 1;
    return std::uint64_t(pos) | overall << _parity_bits;
}

BitVec
SecdedCode::encode(const BitVec &data) const
{
    DESC_ASSERT(data.width() == _data_bits, "payload width mismatch");
    // The parity word is the XOR of the set data bits' columns.
    std::uint64_t parity = 0;
    const auto &words = data.words();
    for (std::size_t w = 0; w < words.size(); w++) {
        for (std::uint64_t word = words[w]; word; word &= word - 1)
            parity ^= parityColumn(unsigned(w * 64)
                                   + unsigned(std::countr_zero(word)));
    }
    // Codeword layout: data bits first, Hamming parity bits next,
    // overall parity last (systematic layout keeps the stored data
    // in standard binary format, as Section 3.2.3 requires).
    BitVec code(codeBits());
    for (unsigned i = 0; i < _data_bits; i++)
        code.setBit(i, data.bit(i));
    code.setField(_data_bits, parityBits(), parity);
    return code;
}

SecdedCode::DecodeResult
SecdedCode::decode(const BitVec &codeword) const
{
    DESC_ASSERT(codeword.width() == codeBits(), "codeword width mismatch");

    unsigned syndrome = 0;
    unsigned ones = 0;
    for (unsigned i = 0; i < _data_bits; i++) {
        if (codeword.bit(i)) {
            syndrome ^= _data_pos[i];
            ones++;
        }
    }
    for (unsigned p = 0; p < _parity_bits; p++) {
        if (codeword.bit(_data_bits + p)) {
            syndrome ^= 1u << p;
            ones++;
        }
    }
    bool overall = codeword.bit(codeBits() - 1);
    bool parity_ok = ((ones & 1) != 0) == overall;

    DecodeResult result{EccStatus::Ok, BitVec(_data_bits)};
    for (unsigned i = 0; i < _data_bits; i++)
        result.data.setBit(i, codeword.bit(i));

    if (syndrome == 0 && parity_ok)
        return result; // clean

    if (syndrome == 0 && !parity_ok) {
        // The overall parity bit itself flipped; data is intact.
        result.status = EccStatus::Corrected;
        return result;
    }

    // An odd-weight error whose syndrome names a position inside the
    // codeword is a single error there; one that points past the
    // codeword (three or more errors) is detected but uncorrectable.
    if (!parity_ok && syndrome <= _data_bits + _parity_bits) {
        result.status = EccStatus::Corrected;
        if (_pos_data[syndrome] != ~0u)
            result.data.flipBit(_pos_data[syndrome]);
        // Errors in parity positions leave the data intact.
        return result;
    }

    // Non-zero syndrome with matching overall parity (a double error)
    // or pointing outside the codeword: uncorrectable.
    result.status = EccStatus::DetectedDouble;
    return result;
}

} // namespace desc::ecc
