#include "common/params.h"

#include <sstream>

namespace hdk {

Status HdkParams::Validate() const {
  if (df_max == 0) {
    return Status::InvalidArgument("df_max must be positive");
  }
  if (window < 2) {
    return Status::InvalidArgument("window must be at least 2");
  }
  if (s_max == 0) {
    return Status::InvalidArgument("s_max must be positive");
  }
  if (s_max > window) {
    return Status::InvalidArgument(
        "s_max cannot exceed window: a key's terms must fit in one window");
  }
  if (very_frequent_threshold == 0) {
    return Status::InvalidArgument("very_frequent_threshold must be positive");
  }
  return Status::OK();
}

std::string HdkParams::ToString() const {
  std::ostringstream os;
  os << "HdkParams{df_max=" << df_max
     << ", Ff=" << very_frequent_threshold
     << ", Fr=" << rare_threshold
     << ", w=" << window
     << ", s_max=" << s_max
     << ", ndk_trunc=" << EffectiveNdkTruncation() << "}";
  return os.str();
}

}  // namespace hdk
