#include "sip/site_classifier.h"

namespace sgxpl::sip {

const char* to_string(AccessClass c) noexcept {
  switch (c) {
    case AccessClass::kClass1:
      return "class1";
    case AccessClass::kClass2:
      return "class2";
    case AccessClass::kClass3:
      return "class3";
  }
  return "?";
}

SiteClassifier::SiteClassifier(const dfp::StreamPredictorParams& params)
    : predictor_(params) {}

AccessClass SiteClassifier::classify(ProcessId pid, PageNum page) {
  // The access feeds the stream structure whatever its class, exactly as
  // the runtime predictor would see the fault sequence.
  switch (predictor_.classify(pid, page)) {
    case dfp::StreamMatch::kOnList:
      return AccessClass::kClass1;
    case dfp::StreamMatch::kFollows:
      return AccessClass::kClass2;
    case dfp::StreamMatch::kNone:
      break;
  }
  return AccessClass::kClass3;
}

}  // namespace sgxpl::sip
