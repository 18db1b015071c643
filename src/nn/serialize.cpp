#include "nn/serialize.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace s2a::nn {

namespace {
constexpr const char* kMagic = "s2a-params";
constexpr int kVersion = 1;
}  // namespace

void save_params(const std::vector<Tensor*>& params, std::ostream& os) {
  os << kMagic << " v" << kVersion << "\n" << params.size() << "\n";
  char buf[64];
  for (const Tensor* t : params) {
    S2A_CHECK(t != nullptr);
    os << t->shape().size();
    for (int d : t->shape()) os << ' ' << d;
    os << '\n';
    for (std::size_t i = 0; i < t->numel(); ++i) {
      // %a prints an exact hexadecimal float: loads are bit-identical.
      std::snprintf(buf, sizeof(buf), "%a", (*t)[i]);
      os << buf << (i + 1 == t->numel() ? '\n' : ' ');
    }
    if (t->numel() == 0) os << '\n';
  }
}

void load_params(const std::vector<Tensor*>& params, std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  S2A_CHECK_MSG(magic == kMagic && version == "v1",
                "not an s2a-params v1 stream (got '" << magic << " "
                                                     << version << "')");
  std::size_t count = 0;
  is >> count;
  S2A_CHECK_MSG(is && count == params.size(),
                "stream holds " << count << " tensors, model expects "
                                << params.size());
  for (Tensor* t : params) {
    S2A_CHECK(t != nullptr);
    // Every read must succeed and every token must parse whole: a cut or
    // garbled stream fails loudly instead of loading zeros.
    std::size_t rank = 0;
    is >> rank;
    S2A_CHECK_MSG(is && rank == t->shape().size(),
                  "tensor rank mismatch while loading parameters");
    std::vector<int> shape(rank);
    for (auto& d : shape) is >> d;
    S2A_CHECK_MSG(is && shape == t->shape(),
                  "tensor shape mismatch while loading parameters");
    for (std::size_t i = 0; i < t->numel(); ++i) {
      std::string tok;
      S2A_CHECK_MSG(is >> tok, "truncated parameter stream");
      char* end = nullptr;
      (*t)[i] = std::strtod(tok.c_str(), &end);
      S2A_CHECK_MSG(end == tok.c_str() + tok.size(),
                    "malformed parameter value '" << tok << "'");
    }
  }
}

void save_params_file(const std::vector<Tensor*>& params,
                      const std::string& path) {
  std::ofstream os(path);
  S2A_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  save_params(params, os);
}

void load_params_file(const std::vector<Tensor*>& params,
                      const std::string& path) {
  std::ifstream is(path);
  S2A_CHECK_MSG(is.good(), "cannot open '" << path << "' for reading");
  load_params(params, is);
}

}  // namespace s2a::nn
