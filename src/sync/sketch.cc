#include "sync/sketch.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/hash.h"

namespace hdk::sync {

Ibf::Ibf(uint32_t cells, uint32_t num_hashes, uint64_t seed)
    : num_hashes_(std::max(num_hashes, 2u)), seed_(seed) {
  if (cells < num_hashes_) cells = num_hashes_;
  part_size_ = (cells + num_hashes_ - 1) / num_hashes_;
  cells_.resize(static_cast<size_t>(part_size_) * num_hashes_);
}

size_t Ibf::CellIndex(uint32_t hash_idx, uint64_t element) const {
  const uint64_t h = Mix64(element ^ HashCombine(seed_, hash_idx + 1));
  return static_cast<size_t>(hash_idx) * part_size_ + h % part_size_;
}

uint64_t Ibf::Check(uint64_t element) const {
  return Mix64(element ^ HashCombine(seed_, 0x43484b));  // "CHK"
}

void Ibf::Update(uint64_t element, int32_t delta) {
  const uint64_t check = Check(element);
  for (uint32_t j = 0; j < num_hashes_; ++j) {
    Cell& cell = cells_[CellIndex(j, element)];
    cell.count += delta;
    cell.key_sum ^= element;
    cell.check_sum ^= check;
  }
}

void Ibf::Subtract(const Ibf& other) {
  assert(cells_.size() == other.cells_.size());
  assert(seed_ == other.seed_ && num_hashes_ == other.num_hashes_);
  for (size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].count -= other.cells_[i].count;
    cells_[i].key_sum ^= other.cells_[i].key_sum;
    cells_[i].check_sum ^= other.cells_[i].check_sum;
  }
}

bool Ibf::Pure(const Cell& cell) const {
  return (cell.count == 1 || cell.count == -1) &&
         cell.check_sum == Check(cell.key_sum);
}

Ibf::DecodeResult Ibf::Decode() const {
  // Peel on a scratch copy: pop a pure cell, emit its element, remove the
  // element everywhere (which may expose new pure cells), repeat.
  Ibf scratch = *this;
  DecodeResult result;
  std::vector<size_t> worklist;
  for (size_t i = 0; i < scratch.cells_.size(); ++i) {
    if (scratch.Pure(scratch.cells_[i])) worklist.push_back(i);
  }
  while (!worklist.empty()) {
    const size_t idx = worklist.back();
    worklist.pop_back();
    const Cell& cell = scratch.cells_[idx];
    if (!scratch.Pure(cell)) continue;  // already drained via a sibling
    const uint64_t element = cell.key_sum;
    const int32_t sign = cell.count;
    (sign > 0 ? result.plus : result.minus).push_back(element);
    scratch.Update(element, -sign);
    for (uint32_t j = 0; j < scratch.num_hashes_; ++j) {
      const size_t touched = scratch.CellIndex(j, element);
      if (scratch.Pure(scratch.cells_[touched])) worklist.push_back(touched);
    }
  }
  for (const Cell& cell : scratch.cells_) {
    if (cell.count != 0 || cell.key_sum != 0 || cell.check_sum != 0) {
      return DecodeResult{};  // stuck: difference exceeded the cell budget
    }
  }
  result.ok = true;
  return result;
}

StrataEstimator::StrataEstimator(const SyncConfig& config)
    : seed_(HashCombine(config.seed, 0x535452415441ULL)) {  // "STRATA"
  const uint32_t levels = std::max(config.strata_levels, 1u);
  strata_.reserve(levels);
  for (uint32_t i = 0; i < levels; ++i) {
    strata_.emplace_back(config.strata_cells, config.num_hashes,
                         HashCombine(config.seed, i));
  }
}

void StrataEstimator::Insert(uint64_t element) {
  const uint64_t h = Mix64(element ^ seed_);
  const uint32_t stratum =
      std::min(static_cast<uint32_t>(std::countr_zero(h)),
               static_cast<uint32_t>(strata_.size()) - 1);
  strata_[stratum].Insert(element);
}

uint64_t StrataEstimator::EstimateDiff(const StrataEstimator& other) const {
  assert(strata_.size() == other.strata_.size());
  uint64_t count = 0;
  for (size_t i = strata_.size(); i-- > 0;) {
    Ibf diff = strata_[i];
    diff.Subtract(other.strata_[i]);
    const Ibf::DecodeResult decoded = diff.Decode();
    if (!decoded.ok) {
      // Stratum i samples ~2^-(i+1) of the space; everything below it
      // (including this stratum) is extrapolated from the strata already
      // decoded above. Never report zero once a stratum is undecodable.
      return std::max<uint64_t>(count, 1) << (i + 1);
    }
    count += decoded.plus.size() + decoded.minus.size();
  }
  return count;
}

uint64_t StrataEstimator::ByteSize() const {
  uint64_t bytes = 0;
  for (const Ibf& stratum : strata_) bytes += stratum.ByteSize();
  return bytes;
}

}  // namespace hdk::sync
