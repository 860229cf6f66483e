#include "core/scheme.h"

#include <sstream>

namespace sgxpl::core {

const char* to_string(Scheme s) noexcept {
  switch (s) {
    case Scheme::kNative:
      return "native";
    case Scheme::kBaseline:
      return "baseline";
    case Scheme::kDfp:
      return "DFP";
    case Scheme::kDfpStop:
      return "DFP-stop";
    case Scheme::kSip:
      return "SIP";
    case Scheme::kHybrid:
      return "SIP+DFP";
  }
  return "?";
}

std::string SimConfig::describe() const {
  std::ostringstream oss;
  oss << "SimConfig{scheme=" << to_string(scheme)
      << ", epc_pages=" << enclave.epc_pages
      << ", streams=" << dfp.predictor.stream_list_len
      << ", load_length=" << dfp.predictor.load_length
      << ", sip_threshold=" << sip.irregular_threshold;
  if (chaos.any_enabled()) {
    oss << ", chaos=" << chaos.describe();
  }
  if (enclave.channel.max_queued > 0) {
    oss << ", channel_queue=" << enclave.channel.max_queued;
  }
  if (enclave.channel.max_retries > 0) {
    oss << ", max_retries=" << enclave.channel.max_retries;
  }
  if (enclave.admission.enabled) {
    oss << ", admission=on";
  }
  oss << "}";
  return oss.str();
}

SimConfig paper_platform(Scheme scheme) {
  SimConfig cfg;
  cfg.scheme = scheme;
  cfg.enclave.epc_pages = sgxsim::kDefaultEpcPages;
  cfg.dfp.predictor.stream_list_len = 30;
  cfg.dfp.predictor.load_length = 4;
  cfg.sip.irregular_threshold = 0.05;
  return cfg;
}

}  // namespace sgxpl::core
