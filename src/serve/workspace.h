#pragma once

// In-batch working set of the serving layer: the decoded sub-results that
// producer tasks hand to consumer tasks within ONE batch submit (the CAS
// holds the durable copies; the workspace holds the live ones). Every
// operation is serialized on one mutex; entries are immutable once put.

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/sigma.h"
#include "la/matrix.h"
#include "mf/wavefunctions.h"

namespace xgw::serve {

class BatchWorkspace {
 public:
  void put_matrix(const std::string& key, ZMatrix m);
  bool has_matrix(const std::string& key) const;
  std::shared_ptr<const ZMatrix> get_matrix(const std::string& key) const;

  void put_wavefunctions(const std::string& key, Wavefunctions wf);
  std::shared_ptr<const Wavefunctions> get_wavefunctions(
      const std::string& key) const;

  void put_qp(const std::string& key, const QpResult& r);
  std::optional<QpResult> get_qp(const std::string& key) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ZMatrix>> matrices_;
  std::map<std::string, std::shared_ptr<const Wavefunctions>> wfn_;
  std::map<std::string, QpResult> qp_;
};

}  // namespace xgw::serve
