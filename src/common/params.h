// HDK model parameters (paper Section 3 and Table 2).
#ifndef HDKP2P_COMMON_PARAMS_H_
#define HDKP2P_COMMON_PARAMS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/types.h"

namespace hdk {

/// Parameters of the HDK indexing/retrieval model.
///
/// Defaults follow the paper's Table 2 (Wikipedia experiments):
/// DFmax in {400, 500}, Ff = 100,000, w = 20, smax = 3.
struct HdkParams {
  /// Maximal document frequency for a key to be discriminative (Def. 3).
  Freq df_max = 400;

  /// Collection-frequency threshold above which a term is "very frequent"
  /// and excluded from the key vocabulary (Section 4.1; Table 2).
  Freq very_frequent_threshold = 100000;

  /// Collection-frequency threshold below which a key is "rare" (Def. 7).
  /// Only used by the theoretical analysis; the indexing algorithm itself
  /// works with document frequencies.
  Freq rare_threshold = 400;

  /// Proximity-filtering window size w (Def. 2): all terms of a key must
  /// co-occur within w consecutive token positions.
  uint32_t window = 20;

  /// Size filtering: maximal number of terms in a key (Def. 6).
  uint32_t s_max = 3;

  /// Number of postings kept for a non-discriminative key (top-DFmax
  /// truncation, Section 3.1 "Computing the global index").
  /// 0 means "use df_max" (the paper's choice).
  Freq ndk_truncation = 0;

  /// Effective NDK posting-list truncation.
  Freq EffectiveNdkTruncation() const {
    return ndk_truncation == 0 ? df_max : ndk_truncation;
  }

  /// Validates parameter consistency.
  Status Validate() const;

  /// Human-readable one-line summary.
  std::string ToString() const;
};

}  // namespace hdk

#endif  // HDKP2P_COMMON_PARAMS_H_
