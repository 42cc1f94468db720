//===----------------------------------------------------------------------===//
///
/// \file
/// Flat bit-packed domain vectors for the solver. A solver state domain
/// is a subset of {U, A, D} — three bits — and a boolean domain a subset
/// of {false, true} — two bits — yet the byte-per-variable
/// representation spent 8 bits on each and made every full-array
/// operation (the copy into a SolverImpl, the empty-domain scan, the
/// default-to-false sweep, the solution compare) touch 8x the cache
/// lines it needed to.
///
/// `PackedArray<Bits>` stores `64 / Bits` entries per uint64 word, lanes
/// at bit offsets `lane * Bits`, never straddling a word boundary (for
/// Bits == 3 that leaves one pad bit per word). Two invariants make the
/// word-level operations trivial:
///
///   * pad bits and lanes at indices >= size() are always zero, so
///     equality is plain word comparison and copies are word memcpy;
///   * every lane holds at most `Bits` significant bits (set() masks).
///
/// On top of lane get/set this gives genuinely word-at-a-time versions
/// of the solver's full-array idioms:
///
///   * `hasZeroEntry()` — "is any domain empty?" without visiting lanes:
///     OR-fold each lane onto its low bit and compare against the
///     all-lanes-present pattern;
///   * `defaultAnyToFalse()` (Bits == 2) — the solved-system sweep that
///     collapses every still-unconstrained boolean {F,T} to {F}:
///     lanes with both bits set get the high bit cleared, 32 booleans
///     per word-op.
///
/// `pack()`/`unpack()` convert to and from the byte-per-entry layout;
/// the byte-domain solver path (the raw §4.3 oracle behind
/// `--no-simplify`) round-trips through them.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_PACKEDDOMAINS_H
#define AFL_SUPPORT_PACKEDDOMAINS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace afl {
namespace support {

template <unsigned Bits> class PackedArray {
  static_assert(Bits >= 1 && Bits <= 8, "lane width out of range");

public:
  static constexpr unsigned PerWord = 64 / Bits;
  static constexpr uint64_t LaneMask = (uint64_t(1) << Bits) - 1;

  PackedArray() = default;
  PackedArray(size_t Count, uint8_t Value) { assign(Count, Value); }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  uint8_t get(size_t I) const {
    return static_cast<uint8_t>((Words[I / PerWord] >> shift(I)) & LaneMask);
  }

  /// Read-only indexing; writes go through set().
  uint8_t operator[](size_t I) const { return get(I); }

  void set(size_t I, uint8_t Value) {
    uint64_t &W = Words[I / PerWord];
    unsigned Sh = shift(I);
    W = (W & ~(LaneMask << Sh)) | ((uint64_t(Value) & LaneMask) << Sh);
  }

  void push_back(uint8_t Value) {
    if (Count % PerWord == 0)
      Words.push_back(0);
    ++Count;
    set(Count - 1, Value);
  }

  void assign(size_t NewCount, uint8_t Value) {
    uint64_t Pat = 0;
    for (unsigned L = 0; L != PerWord; ++L)
      Pat |= (uint64_t(Value) & LaneMask) << (L * Bits);
    Words.assign((NewCount + PerWord - 1) / PerWord, Pat);
    Count = NewCount;
    zeroTail();
  }

  void clear() {
    Words.clear();
    Count = 0;
  }

  void reserve(size_t NewCount) {
    Words.reserve((NewCount + PerWord - 1) / PerWord);
  }

  /// True iff some lane is all-zero (an empty domain — the solver's
  /// trivially-unsat precondition). Word-at-a-time: OR every bit of a
  /// lane onto the lane's low bit, then compare against the pattern
  /// with each valid lane's low bit set.
  bool hasZeroEntry() const {
    size_t Full = Count / PerWord, Rem = Count % PerWord;
    for (size_t W = 0; W != Full; ++W)
      if ((collapse(Words[W]) & lsbPattern(PerWord)) != lsbPattern(PerWord))
        return true;
    if (Rem) {
      uint64_t Need = lsbPattern(static_cast<unsigned>(Rem));
      if ((collapse(Words[Full]) & Need) != Need)
        return true;
    }
    return false;
  }

  /// Collapse every still-undetermined boolean domain {F,T} (0b11) to
  /// {F} (0b01) — the post-solve default sweep — 32 lanes per word-op.
  /// Lanes already singleton (0b01 / 0b10) and zero pad lanes have at
  /// most one bit set, so `w & (w >> 1)` is 0 there and they pass
  /// through untouched.
  void defaultAnyToFalse() {
    static_assert(Bits == 2, "both-bits-set collapse is a 2-bit-lane op");
    for (uint64_t &W : Words) {
      uint64_t Both = W & (W >> 1) & lsbPattern(PerWord);
      W ^= Both << 1;
    }
  }

  friend bool operator==(const PackedArray &A, const PackedArray &B) {
    return A.Count == B.Count && A.Words == B.Words;
  }
  friend bool operator!=(const PackedArray &A, const PackedArray &B) {
    return !(A == B);
  }

  std::vector<uint8_t> unpack() const {
    std::vector<uint8_t> Out(Count);
    for (size_t I = 0; I != Count; ++I)
      Out[I] = get(I);
    return Out;
  }

  static PackedArray pack(const std::vector<uint8_t> &Bytes) {
    PackedArray Out;
    Out.reserve(Bytes.size());
    for (uint8_t V : Bytes)
      Out.push_back(V);
    return Out;
  }

private:
  static unsigned shift(size_t I) {
    return static_cast<unsigned>(I % PerWord) * Bits;
  }

  /// Low bit of every one of the first \p Lanes lanes.
  static constexpr uint64_t lsbPattern(unsigned Lanes) {
    uint64_t P = 0;
    for (unsigned L = 0; L != Lanes; ++L)
      P |= uint64_t(1) << (L * Bits);
    return P;
  }

  /// OR every bit of each lane down onto the lane's low bit.
  static uint64_t collapse(uint64_t W) {
    uint64_t C = W;
    for (unsigned K = 1; K != Bits; ++K)
      C |= W >> K;
    return C;
  }

  /// Keep lanes >= Count zero so word compare == lane compare.
  void zeroTail() {
    if (size_t Rem = Count % PerWord)
      Words.back() &= (uint64_t(1) << (Rem * Bits)) - 1;
  }

  std::vector<uint64_t> Words;
  size_t Count = 0;
};

/// {U, A, D} subsets: 3 bits per variable, 21 per word (1 pad bit).
using StateDomains = PackedArray<3>;
/// {false, true} subsets: 2 bits per variable, 32 per word.
using BoolDomains = PackedArray<2>;
/// Plain bitsets (solver queue/candidate membership): 64 per word.
using PackedBits = PackedArray<1>;

} // namespace support
} // namespace afl

#endif // AFL_SUPPORT_PACKEDDOMAINS_H
