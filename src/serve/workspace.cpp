#include "serve/workspace.h"

namespace xgw::serve {

void BatchWorkspace::put_matrix(const std::string& key, ZMatrix m) {
  std::lock_guard<std::mutex> lk(mu_);
  matrices_[key] = std::make_shared<const ZMatrix>(std::move(m));
}

bool BatchWorkspace::has_matrix(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return matrices_.count(key) != 0;
}

std::shared_ptr<const ZMatrix> BatchWorkspace::get_matrix(
    const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = matrices_.find(key);
  return it == matrices_.end() ? nullptr : it->second;
}

void BatchWorkspace::put_wavefunctions(const std::string& key,
                                       Wavefunctions wf) {
  std::lock_guard<std::mutex> lk(mu_);
  wfn_[key] = std::make_shared<const Wavefunctions>(std::move(wf));
}

std::shared_ptr<const Wavefunctions> BatchWorkspace::get_wavefunctions(
    const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = wfn_.find(key);
  return it == wfn_.end() ? nullptr : it->second;
}

void BatchWorkspace::put_qp(const std::string& key, const QpResult& r) {
  std::lock_guard<std::mutex> lk(mu_);
  qp_[key] = r;
}

std::optional<QpResult> BatchWorkspace::get_qp(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = qp_.find(key);
  if (it == qp_.end()) return std::nullopt;
  return it->second;
}

}  // namespace xgw::serve
