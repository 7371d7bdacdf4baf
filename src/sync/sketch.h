// Set-reconciliation sketches: invertible Bloom filter + strata estimator.
//
// Both operate on 64-bit element digests (the caller hashes whatever it
// wants to reconcile — here: replica entries — into one uint64 each; the
// digest must be unique within a set).
//
// The IBF follows Eppstein, Goodrich, Uyeda, Varghese, "What's the
// Difference? Efficient Set Reconciliation without Prior Context"
// (SIGCOMM 2011): each element is XOR-folded into k cells (one per
// partitioned sub-table, so the k indices are always distinct and an
// element can never cancel itself), Subtract() turns two same-shape IBFs
// into a sketch of the symmetric difference, and Decode() peels pure
// cells until the sketch is empty. Decoding is probabilistic: with
// ~1.6 cells per difference element and k=3 it almost always succeeds,
// and when it does not, Decode() says so — it never returns a wrong
// difference silently (each cell carries a keyed checksum, and the
// caller re-verifies the decoded plan, see sync/reconcile.h).
//
// The strata estimator stacks small fixed-size IBFs, stratum i sampling
// elements whose hash has exactly i trailing zero bits (~2^-(i+1) of the
// set). Decoding strata top-down and scaling by the sampling rate
// estimates |A xor B| without shipping either set.
#ifndef HDKP2P_SYNC_SKETCH_H_
#define HDKP2P_SYNC_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hdk::sync {

/// Strata-estimator depth: stratum i samples ~2^-(i+1) of the key space,
/// so 16 levels size differences up to ~2^17 elements.
inline constexpr uint32_t kStrataLevels = 16;
/// IBF cells per stratum (fixed, small: the estimator only needs to
/// decode the sparse top strata).
inline constexpr uint32_t kStrataCells = 40;
/// Hash functions per IBF (partitioned sub-tables, one per function).
inline constexpr uint32_t kSketchHashes = 3;
/// Seeds every sketch hash; both sides of a pair must agree.
inline constexpr uint64_t kSketchSeed = 0x414e544945ULL;  // "ANTIE"

/// Invertible Bloom filter over uint64 element digests.
class Ibf {
 public:
  /// One cell: signed element count, XOR of element digests, XOR of
  /// keyed element checksums. 20 bytes on the wire.
  struct Cell {
    int32_t count = 0;
    uint64_t key_sum = 0;
    uint64_t check_sum = 0;
  };
  static constexpr size_t kCellBytes = 4 + 8 + 8;

  /// `cells` is rounded up to a multiple of `num_hashes` so every hash
  /// function owns an equal-size partition. num_hashes >= 2.
  Ibf(uint32_t cells, uint32_t num_hashes, uint64_t seed);

  void Insert(uint64_t element) { Update(element, +1); }
  void Erase(uint64_t element) { Update(element, -1); }

  /// Cell-wise difference: afterwards this sketches (this \ other) with
  /// positive counts and (other \ this) with negative counts. Both IBFs
  /// must have identical shape and seed.
  void Subtract(const Ibf& other);

  struct DecodeResult {
    bool ok = false;
    std::vector<uint64_t> plus;   // count > 0 side (this \ other)
    std::vector<uint64_t> minus;  // count < 0 side (other \ this)
  };
  /// Peels the sketch. ok only when every cell drained to zero — a
  /// partial peel (ok == false) means the difference was too large for
  /// the cell budget and the caller must fall back.
  DecodeResult Decode() const;

  uint32_t num_cells() const { return static_cast<uint32_t>(cells_.size()); }
  /// Wire size of the sketch payload.
  uint64_t ByteSize() const { return cells_.size() * kCellBytes; }

 private:
  void Update(uint64_t element, int32_t delta);
  size_t CellIndex(uint32_t hash_idx, uint64_t element) const;
  uint64_t Check(uint64_t element) const;
  bool Pure(const Cell& cell) const;

  uint32_t num_hashes_;
  uint32_t part_size_;
  uint64_t seed_;
  std::vector<Cell> cells_;
};

/// Stacked-IBF estimator of the symmetric difference size.
class StrataEstimator {
 public:
  StrataEstimator();

  void Insert(uint64_t element);

  /// Estimated |A xor B| (this vs other). Never underestimates by
  /// design: the first stratum that fails to decode scales the count so
  /// far by its full sampling rate.
  uint64_t EstimateDiff(const StrataEstimator& other) const;

  uint64_t ByteSize() const;

 private:
  uint64_t seed_;
  std::vector<Ibf> strata_;
};

}  // namespace hdk::sync

#endif  // HDKP2P_SYNC_SKETCH_H_
