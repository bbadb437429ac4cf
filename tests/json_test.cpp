#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "util/json.h"

namespace h2p {
namespace {

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(Json::number(42).dump(), "42");
  EXPECT_EQ(Json::number(1.5).dump(), "1.5");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json().dump(), "null");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(Json::string("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  const Json j = Json::parse("\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd");
}

TEST(Json, ObjectAndArrayBuilders) {
  Json j = Json::object();
  j["name"] = Json::string("test");
  Json arr = Json::array();
  arr.push_back(Json::number(1));
  arr.push_back(Json::number(2));
  j["values"] = std::move(arr);
  EXPECT_EQ(j.dump(), "{\"name\":\"test\",\"values\":[1,2]}");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(
      R"({"a": [1, 2.5, true, null, "x"], "b": {"c": -3e2}})");
  EXPECT_EQ(j.at("a").size(), 5u);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_number(), 2.5);
  EXPECT_TRUE(j.at("a").at(2).as_bool());
  EXPECT_TRUE(j.at("a").at(3).is_null());
  EXPECT_EQ(j.at("a").at(4).as_string(), "x");
  EXPECT_DOUBLE_EQ(j.at("b").at("c").as_number(), -300.0);
}

TEST(Json, ParseWhitespaceTolerant) {
  const Json j = Json::parse("  { \"k\" :\n[ ] }  ");
  EXPECT_EQ(j.at("k").size(), 0u);
}

TEST(Json, DoubleDumpIsValueExact) {
  // dump -> parse must reproduce the exact double, not an approximation:
  // fault scripts and serving results replay bit-identically through JSON.
  for (const double v :
       {0.1, 1.0 / 3.0, 1084.61088268754321, 2.0 / 0.3, 1e-9,
        3.141592653589793, 0.30000000000000004}) {
    EXPECT_EQ(Json::parse(Json::number(v).dump()).as_number(), v) << v;
  }
}

TEST(Json, RoundTripThroughDump) {
  Json j = Json::object();
  j["pi"] = Json::number(3.14159);
  j["flag"] = Json::boolean(false);
  Json inner = Json::array();
  inner.push_back(Json::string("nested"));
  j["list"] = std::move(inner);
  const Json back = Json::parse(j.dump());
  EXPECT_DOUBLE_EQ(back.at("pi").as_number(), 3.14159);
  EXPECT_FALSE(back.at("flag").as_bool());
  EXPECT_EQ(back.at("list").at(0).as_string(), "nested");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, NestingDepthLimit) {
  // 256 levels of arrays or objects parse; one more is a clean error, and
  // so is an adversarially deep document that would otherwise recurse
  // until the stack overflows.
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "{\"k\":";
    return text + "1" + std::string(depth, '}');
  };
  EXPECT_NO_THROW((void)Json::parse(arrays(256)));
  EXPECT_NO_THROW((void)Json::parse(objects(256)));
  EXPECT_THROW(Json::parse(arrays(257)), std::runtime_error);
  EXPECT_THROW(Json::parse(objects(257)), std::runtime_error);
  EXPECT_THROW(Json::parse(std::string(200000, '[')), std::runtime_error);
}

TEST(Json, TypeErrors) {
  const Json n = Json::number(1);
  EXPECT_THROW((void)n.as_string(), std::runtime_error);
  EXPECT_THROW((void)n.at("k"), std::runtime_error);
  EXPECT_THROW((void)n.at(std::size_t{0}), std::runtime_error);
  const Json o = Json::object();
  EXPECT_THROW((void)o.at("missing"), std::runtime_error);
}

TEST(Json, ContainsAndItems) {
  Json j = Json::object();
  j["x"] = Json::number(1);
  EXPECT_TRUE(j.contains("x"));
  EXPECT_FALSE(j.contains("y"));
  EXPECT_EQ(j.items().size(), 1u);
}

}  // namespace
}  // namespace h2p
