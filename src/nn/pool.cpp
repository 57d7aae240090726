#include "nn/pool.hpp"

#include <algorithm>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace dnnspmv {

std::vector<std::int64_t> MaxPool2D::output_shape(
    const std::vector<std::int64_t>& in) const {
  DNNSPMV_CHECK(in.size() == 4);
  const std::int64_t oh = (in[2] - k_) / stride_ + 1;
  const std::int64_t ow = (in[3] - k_) / stride_ + 1;
  DNNSPMV_CHECK_MSG(oh > 0 && ow > 0, "pool window larger than input");
  return {in[0], in[1], oh, ow};
}

void MaxPool2D::forward(const Tensor& in, Tensor& out, bool training,
                        Workspace&) {
  const auto os = output_shape(in.shape());
  out.ensure(os);
  const std::int64_t planes = in.dim(0) * in.dim(1);
  const std::int64_t h = in.dim(2), w = in.dim(3);
  const std::int64_t oh = os[2], ow = os[3];
  if (!training) {
    // Inference: backward never runs, so skip the argmax bookkeeping and
    // take branchless maxes (same values — max over finite floats is
    // exact). This is on the cold-miss latency path.
#pragma omp parallel for schedule(static) if (planes > 4)
    for (std::int64_t pl = 0; pl < planes; ++pl) {
      const float* src = in.data() + pl * h * w;
      float* dst = out.data() + pl * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        const float* rows = src + y * stride_ * w;
        float* drow = dst + y * ow;
        std::int64_t x = 0;
#ifdef __SSE2__
        if (k_ == 2 && stride_ == 2) {
          // 2×2/2 window: vertical max of two rows, then pairwise
          // horizontal max via even/odd shuffles — four outputs per step.
          for (; x + 4 <= ow; x += 4) {
            const float* r0 = rows + 2 * x;
            const float* r1 = r0 + w;
            const __m128 v0 = _mm_max_ps(_mm_loadu_ps(r0),
                                         _mm_loadu_ps(r1));
            const __m128 v1 = _mm_max_ps(_mm_loadu_ps(r0 + 4),
                                         _mm_loadu_ps(r1 + 4));
            const __m128 ev = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
            const __m128 od = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));
            _mm_storeu_ps(drow + x, _mm_max_ps(ev, od));
          }
        }
#endif
        for (; x < ow; ++x) {
          const float* win = rows + x * stride_;
          float best = win[0];
          for (std::int64_t dy = 0; dy < k_; ++dy)
            for (std::int64_t dx = 0; dx < k_; ++dx)
              best = std::max(best, win[dy * w + dx]);
          drow[x] = best;
        }
      }
    }
    argmax_valid_ = false;
    return;
  }
  record_argmax(in, out);
  argmax_valid_ = true;
}

namespace {

// Folds one window element into the running maximum: a strictly greater
// value takes over, so the first maximum in window order wins.
inline void take(float v, std::int32_t i, float& best, std::int32_t& besti) {
  if (v > best) {
    best = v;
    besti = i;
  }
}

}  // namespace

void MaxPool2D::record_argmax(const Tensor& in, Tensor& out) {
  const std::int64_t planes = in.dim(0) * in.dim(1);
  const std::int64_t h = in.dim(2), w = in.dim(3);
  const std::int64_t oh = out.dim(2), ow = out.dim(3);
  argmax_.resize(static_cast<std::size_t>(out.size()));

  // Every window starts from -1e30 at plane offset 0 and takes its values
  // in row-major window order.
#pragma omp parallel for schedule(static)
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* src = in.data() + pl * h * w;
    float* dst = out.data() + pl * oh * ow;
    std::int32_t* arg = argmax_.data() + pl * oh * ow;
    if (k_ == 2 && stride_ == 2) {
      // 2×2/2 window: the same four compares, unrolled.
      for (std::int64_t y = 0; y < oh; ++y) {
        const float* r0 = src + 2 * y * w;
        const float* r1 = r0 + w;
        const auto i0 = static_cast<std::int32_t>(2 * y * w);
        const auto iw = static_cast<std::int32_t>(w);
        for (std::int64_t x = 0; x < ow; ++x) {
          const std::int32_t i = i0 + 2 * static_cast<std::int32_t>(x);
          float best = -1e30f;
          std::int32_t besti = 0;
          take(r0[2 * x], i, best, besti);
          take(r0[2 * x + 1], i + 1, best, besti);
          take(r1[2 * x], i + iw, best, besti);
          take(r1[2 * x + 1], i + iw + 1, best, besti);
          dst[y * ow + x] = best;
          arg[y * ow + x] = besti;
        }
      }
      continue;
    }
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        float best = -1e30f;
        std::int32_t besti = 0;
        for (std::int64_t dy = 0; dy < k_; ++dy) {
          const std::int64_t iy = y * stride_ + dy;
          for (std::int64_t dx = 0; dx < k_; ++dx) {
            const std::int64_t ix = x * stride_ + dx;
            take(src[iy * w + ix], static_cast<std::int32_t>(iy * w + ix),
                 best, besti);
          }
        }
        dst[y * ow + x] = best;
        arg[y * ow + x] = besti;
      }
    }
  }
}

void MaxPool2D::backward(const Tensor& in, const Tensor& out,
                         const Tensor& grad_out, Tensor& grad_in,
                         Workspace&) {
  if (!argmax_valid_) {
    // The preceding forward ran in inference mode and skipped the argmax
    // bookkeeping — rebuild the routing (same first-maximum rule the
    // training forward records) before scattering gradients.
    Tensor scratch;
    scratch.ensure(out.shape());
    record_argmax(in, scratch);
    argmax_valid_ = true;
  }
  grad_in.ensure(in.shape());
  grad_in.zero();
  const std::int64_t planes = in.dim(0) * in.dim(1);
  const std::int64_t h = in.dim(2), w = in.dim(3);
  const std::int64_t opix = out.dim(2) * out.dim(3);
#pragma omp parallel for schedule(static)
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* go = grad_out.data() + pl * opix;
    const std::int32_t* arg = argmax_.data() + pl * opix;
    float* gi = grad_in.data() + pl * h * w;
    for (std::int64_t p = 0; p < opix; ++p) gi[arg[p]] += go[p];
  }
}

}  // namespace dnnspmv
