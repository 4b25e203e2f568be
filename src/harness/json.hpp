#ifndef BOWSIM_HARNESS_JSON_HPP
#define BOWSIM_HARNESS_JSON_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

/**
 * @file
 * Minimal JSON value: enough to emit the bench artifacts (sweep, litmus,
 * metrics and sync-report documents) and to parse them back for
 * validation (bench_smoke, unit tests). No external dependencies.
 * Object keys keep insertion order so emitted artifacts are stable and
 * diffable; dumps are deterministic, so two sweeps agree byte-for-byte
 * iff their results agree.
 */

namespace bowsim::harness {

class Json {
  public:
    enum class Type { Null, Bool, Int, Double, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(int v) : type_(Type::Int), int_(v) {}
    Json(unsigned v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
    Json(std::int64_t v) : type_(Type::Int), int_(v) {}
    Json(std::uint64_t v)
        : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
    Json(double v) : type_(Type::Double), double_(v) {}
    Json(const char *s) : type_(Type::String), string_(s) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Double;
    }

    bool asBool() const;
    std::int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const;

    /** Array element count / object member count. */
    std::size_t size() const;

    /** Appends to an array (value must be an array). */
    Json &push(Json value);

    /** Sets an object member, replacing any existing value for @p key. */
    Json &set(const std::string &key, Json value);

    /** True when this object has member @p key. */
    bool has(const std::string &key) const;

    /** Object member access; throws FatalError when missing. */
    const Json &at(const std::string &key) const;

    /** Array element access; throws FatalError when out of range. */
    const Json &at(std::size_t index) const;

    const std::vector<Json> &items() const { return items_; }
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return members_;
    }

    /**
     * Serializes deterministically. @p indent > 0 pretty-prints with
     * that many spaces per level; 0 emits a compact single line.
     */
    std::string dump(unsigned indent = 0) const;

    /** Parses @p text; throws FatalError on malformed input. */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, unsigned indent, unsigned depth) const;

    Type type_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace bowsim::harness

#endif  // BOWSIM_HARNESS_JSON_HPP
